//! Property test: a journal truncated at *any* byte offset — the
//! footprint of a crash, a full disk, or an injected tear — resumes
//! with a consistent prefix.
//!
//! "Consistent prefix" means: after the resume-time repair
//! ([`Journal::repair_torn_tail`], which `Journal::open` performs), the
//! completed set is exactly the records whose full line (terminator
//! included) survived the cut — the first `m` records for some `m`,
//! never a later record without an earlier one, never a record the
//! campaign did not finish. Hence a resumed campaign re-runs only the
//! tail: it can never double-run a unit whose `done` record survived,
//! and never skips a unit whose record was lost.

#![expect(
    clippy::disallowed_methods,
    reason = "unguarded: temp journals, cut at arbitrary offsets"
)]

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use rsls_campaign::{Journal, JournalCursor, JournalEvent};

fn tmp_path(case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rsls-journal-proptest-{case}-{}.jsonl",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncation_at_any_offset_resumes_with_a_consistent_prefix(
        n in 1usize..10,
        cut_frac in 0.0f64..1.0,
        case in 0u64..1_000_000,
    ) {
        let path = tmp_path(case);
        let _ = fs::remove_file(&path);

        // Write n done records, noting the file length after each — the
        // offsets at which a record is durably complete.
        let journal = Journal::create(&path).unwrap();
        let mut complete_at = Vec::with_capacity(n);
        for i in 0..n {
            journal.record(&JournalEvent::Done {
                hash: format!("hash-{i:04}"),
                unit: format!("exp/unit-{i:04}"),
                wall_s: i as f64 * 0.5 + 0.25,
            }).unwrap();
            complete_at.push(fs::metadata(&path).unwrap().len());
        }
        drop(journal);

        // Cut the file at an arbitrary byte offset.
        let full_len = *complete_at.last().unwrap();
        let cut = (full_len as f64 * cut_frac) as u64;
        fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();

        // Resume: open repairs the torn tail, then read the done set.
        let resumed = Journal::open(&path).unwrap();
        let done = Journal::completed_hashes(&path).unwrap();

        // The done set must be exactly the records fully on disk at the
        // cut — a prefix, nothing more, nothing less.
        let survivors = complete_at.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(
            done.len(), survivors,
            "cut at {} of {}: expected the first {} records", cut, full_len, survivors
        );
        for i in 0..n {
            prop_assert_eq!(
                done.contains(&format!("hash-{i:04}")),
                i < survivors,
                "record {} must {} the prefix (cut {}, survivors {})",
                i, if i < survivors { "be in" } else { "be outside" }, cut, survivors
            );
        }

        // And the repaired journal accepts appends on a clean boundary:
        // a unit finishing after resume is recorded durably.
        resumed.record(&JournalEvent::Done {
            hash: "post-resume".into(),
            unit: "exp/post".into(),
            wall_s: 1.0,
        }).unwrap();
        drop(resumed);
        let done = Journal::completed_hashes(&path).unwrap();
        prop_assert!(done.contains("post-resume"));
        prop_assert_eq!(done.len(), survivors + 1);

        let _ = fs::remove_file(&path);
    }

    /// A cursor that reads the journal in two sittings — once when it
    /// had been cut at an arbitrary byte, once after it grew back —
    /// reports what one `read_events` over the same bytes reports, at
    /// both points.
    #[test]
    fn a_cursor_read_in_two_sittings_equals_one_read_events(
        n in 1usize..10,
        cut_frac in 0.0f64..1.0,
        case in 0u64..1_000_000,
    ) {
        let path = tmp_path(case ^ 0x5eed);
        let journal = Journal::create(&path).unwrap();
        for i in 0..n {
            let (hash, unit) = (format!("hash-{i:04}"), format!("exp/unit-{i:04}"));
            journal.record(&JournalEvent::Start { hash: hash.clone(), unit: unit.clone() }).unwrap();
            journal.record(&JournalEvent::Done { hash, unit, wall_s: i as f64 * 0.5 + 0.25 }).unwrap();
        }
        drop(journal);
        let whole = fs::read(&path).unwrap();
        let cut = (whole.len() as f64 * cut_frac) as usize;

        fs::write(&path, &whole[..cut]).unwrap();
        let mut cursor = JournalCursor::default();
        let first = cursor.read_new(&path).unwrap();
        let mut seen = first.events.clone();
        let with_tail: Vec<JournalEvent> =
            seen.iter().cloned().chain(first.unterminated).collect();
        prop_assert_eq!(&with_tail, &Journal::read_events(&path).unwrap());
        prop_assert!(cursor.offset() as usize <= cut);

        fs::write(&path, &whole).unwrap();
        let second = cursor.read_new(&path).unwrap();
        prop_assert!(!second.restarted);
        prop_assert_eq!(&second.unterminated, &None);
        seen.extend(second.events);
        prop_assert_eq!(&seen, &Journal::read_events(&path).unwrap());
        prop_assert_eq!(cursor.offset() as usize, whole.len());

        let _ = fs::remove_file(&path);
    }
}
