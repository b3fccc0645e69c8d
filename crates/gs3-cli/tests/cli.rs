//! The command line as a user types it: an option the command does not
//! read is refused with one line and exit code 2, before anything runs.

use std::process::Command;

fn gs3cli(line: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gs3cli")).args(line.split_whitespace()).output().unwrap()
}

#[test]
fn a_misspelled_option_is_one_error_line_and_exit_2() {
    for (line, spelled) in [("run --nodse 300 --area 160", "--nodse"), ("run --qiet", "--qiet")] {
        let out = gs3cli(line);
        assert_eq!(out.status.code(), Some(2), "{line}");
        assert!(out.stdout.is_empty(), "{line}: nothing ran");
        assert_eq!(String::from_utf8_lossy(&out.stderr), format!("error: unknown option {spelled}\n"), "{line}");
    }
    let good = gs3cli("run --nodes 300 --area 160 --seed 4 --quiet");
    assert_eq!(good.status.code(), Some(0), "{}", String::from_utf8_lossy(&good.stderr));
    assert!(String::from_utf8_lossy(&good.stdout).starts_with("configured at "));
}
