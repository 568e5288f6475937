//! Test code may unwrap, expect and panic (`allow-*-in-tests` in
//! `clippy.toml`), but the determinism bans reach it like any code.

/// Library code: its unwrap IS flagged.
pub fn library_code(v: Option<u32>) -> u32 {
    v.unwrap() // line 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_unwrap_expect_and_panic() {
        assert_eq!(library_code(Some(2)).checked_add(1).unwrap(), 3);
        assert_eq!("4".parse::<u32>().expect("parses"), 4);
        if library_code(Some(0)) != 0 {
            panic!("unreachable");
        }
    }

    #[test]
    fn tests_may_not_use_a_default_hasher() {
        let seen: std::collections::HashSet<u32> = [1, 2].into(); // line 24
        assert_eq!(seen.len(), 2);
    }
}

#[test]
fn bare_test_fn_is_exempt() {
    "1".parse::<u32>().unwrap();
}
