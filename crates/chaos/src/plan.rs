//! Canonical chaos plans: which infrastructure faults to inject, how
//! often, and from which seed.
//!
//! A [`ChaosPlan`] is the infrastructure mirror of
//! `rsls_faults::FaultSchedule`: a small, canonically serialized value
//! that fully determines every injection decision. Rates are integer
//! **permille** (0–1000), not floats, so the canonical JSON — and hence
//! [`ChaosPlan::content_hash`] — is byte-exact across platforms.

use serde::{Deserialize, Serialize};

/// A seeded, deterministic infrastructure fault-injection plan.
///
/// Each `*_permille` field is the firing rate of one [`crate::ChaosSite`]
/// in events per thousand decisions (0 = site disabled, 1000 = fires on
/// every decision until the budget runs out). The plan is the *complete*
/// source of injection randomness: two processes holding the same plan
/// make identical decisions at identical decision indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Seed folded into every injection decision.
    pub seed: u64,
    /// Transient `Interrupted`-style errors on cache object reads.
    pub cache_read_error_permille: u32,
    /// Bit-corruption of cache object bytes as they are read.
    pub cache_corrupt_permille: u32,
    /// Truncation of cache object bytes as they are read.
    pub cache_truncate_permille: u32,
    /// Torn (partial, failing) cache object writes.
    pub cache_write_torn_permille: u32,
    /// Torn trailing journal appends (partial line, no newline).
    pub journal_torn_permille: u32,
    /// Injected worker panics at unit execution.
    pub unit_panic_permille: u32,
    /// Injected transient unit failures (recoverable by retry).
    pub unit_transient_permille: u32,
    /// Connection reset before the client reads the response.
    pub client_reset_permille: u32,
    /// Garbled HTTP status line on the client connection.
    pub client_garble_permille: u32,
    /// Artificial delay on the client connection.
    pub client_delay_permille: u32,
    /// Dropped connection right after the server accepts it.
    pub server_accept_permille: u32,
    /// Server-side connection teardown while reading a request.
    pub server_read_permille: u32,
    /// Torn server response (connection closed mid-write).
    pub server_write_permille: u32,
    /// Torn checkpoint-file writes inside the solver driver.
    pub ckpt_write_torn_permille: u32,
    /// Transient errors reading a checkpoint file back at recovery.
    pub ckpt_read_error_permille: u32,
    /// Per-site cap on fired faults (0 = unlimited).
    pub max_faults_per_site: u64,
}

impl ChaosPlan {
    /// A plan that never fires — the fault-free baseline.
    pub fn quiet(seed: u64) -> Self {
        ChaosPlan {
            seed,
            cache_read_error_permille: 0,
            cache_corrupt_permille: 0,
            cache_truncate_permille: 0,
            cache_write_torn_permille: 0,
            journal_torn_permille: 0,
            unit_panic_permille: 0,
            unit_transient_permille: 0,
            client_reset_permille: 0,
            client_garble_permille: 0,
            client_delay_permille: 0,
            server_accept_permille: 0,
            server_read_permille: 0,
            server_write_permille: 0,
            ckpt_write_torn_permille: 0,
            ckpt_read_error_permille: 0,
            max_faults_per_site: 0,
        }
    }

    /// The aggressive soak plan: every site armed at rates high enough
    /// that a small campaign provably hits faults, but low enough that
    /// bounded retries always recover (the chaos-soak CI job asserts
    /// byte-identical reports under this plan).
    pub fn aggressive(seed: u64) -> Self {
        ChaosPlan {
            seed,
            cache_read_error_permille: 300,
            cache_corrupt_permille: 350,
            cache_truncate_permille: 200,
            cache_write_torn_permille: 250,
            journal_torn_permille: 300,
            unit_panic_permille: 150,
            unit_transient_permille: 300,
            client_reset_permille: 300,
            client_garble_permille: 250,
            client_delay_permille: 200,
            // Server-side connection faults stay moderate: every firing
            // costs the client a reconnect-and-retry, and the soak must
            // still finish with a fully populated store.
            server_accept_permille: 60,
            server_read_permille: 80,
            server_write_permille: 80,
            // Checkpoint-file faults fire inside the solver driver's
            // hardened store, which absorbs them with bounded retries;
            // reports must come out byte-identical regardless.
            ckpt_write_torn_permille: 150,
            ckpt_read_error_permille: 150,
            max_faults_per_site: 0,
        }
    }

    /// Canonical JSON serialization (field order is declaration order,
    /// integers only — byte-stable across runs and platforms).
    pub fn canonical_json(&self) -> String {
        serde_json::Writer::compact().render(self)
    }

    /// Stable content address of this plan: SHA-256 of its canonical
    /// JSON, as lowercase hex (mirrors `UnitSpec::content_hash`).
    pub fn content_hash(&self) -> String {
        rsls_core::sha256_hex(self.canonical_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_round_trips() {
        let plan = ChaosPlan::aggressive(42);
        let json = plan.canonical_json();
        let back: ChaosPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.canonical_json(), json, "re-serialization is stable");
        // The soak plan's address, which journals and provenance carry.
        assert_eq!(
            ChaosPlan::aggressive(7).content_hash(),
            "32aef6bfb5d4773bf4e3a745512a56bf341bf0eb57a7180f1b84f5f15ff7c06f"
        );
    }

    #[test]
    fn content_hash_sees_every_field() {
        let base = ChaosPlan::aggressive(1).content_hash();
        assert_eq!(base.len(), 64);
        let mut p = ChaosPlan::aggressive(1);
        p.seed = 2;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.unit_panic_permille += 1;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.max_faults_per_site = 7;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.server_accept_permille += 1;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.server_read_permille += 1;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.server_write_permille += 1;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.ckpt_write_torn_permille += 1;
        assert_ne!(p.content_hash(), base);
        let mut p = ChaosPlan::aggressive(1);
        p.ckpt_read_error_permille += 1;
        assert_ne!(p.content_hash(), base);
    }

    #[test]
    fn quiet_plan_is_all_zero_rates() {
        let p = ChaosPlan::quiet(9);
        assert_eq!(p.cache_read_error_permille, 0);
        assert_eq!(p.unit_panic_permille, 0);
        assert_eq!(p.client_reset_permille, 0);
        assert_eq!(p.seed, 9);
    }
}
