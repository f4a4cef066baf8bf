//! Tier-1 tests as lookups into the paper oracle
//! ([`jetsim::observations`]): each test names the rows it runs.

/// Expands `test_name => ["row-id", ...]` into one `#[test]` per entry
/// that runs those rows of the oracle and fails on the first that does
/// not hold, printing its line as `validate_anchors` does.
macro_rules! paper_tests {
    ($($name:ident => [$($id:literal),+ $(,)?]),+ $(,)?) => {$(
        #[test]
        fn $name() {
            for id in [$($id),+] {
                let check = jetsim::observations::check(id).expect("the oracle has this row");
                let holds = check.holds;
                assert!(holds, "{}", jetsim::observations::table(&[check]));
            }
        }
    )+};
}
