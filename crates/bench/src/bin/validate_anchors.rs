//! Checks the simulated platform against the paper oracle
//! ([`jetsim::observations`]): every number the paper reports, with the
//! band it must land in, and every boxed observation. Prints one line
//! per row and exits non-zero if any row fails. It reads no environment
//! variable and writes no file, so its output is the same wherever it
//! runs.
use std::process::ExitCode;

use jetsim::observations;

fn main() -> ExitCode {
    let checks = observations::check_all();
    let passed = checks.iter().filter(|c| c.holds).count();
    println!("{}", observations::table(&checks));
    println!("{passed}/{} rows hold", checks.len());
    if passed == checks.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
