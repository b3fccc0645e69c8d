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

#[test]
fn a_multi_seed_chaos_run_refuses_single_run_outputs() {
    for (extra, key) in [("--timeline tl.json", "--timeline"), ("--map", "--map")] {
        let line = format!("chaos --nodes 300 --area 160 --runs 2 -j2 {extra}");
        let out = gs3cli(&line);
        assert_eq!(out.status.code(), Some(1), "{line}");
        assert!(out.stdout.is_empty(), "{line}: no network was built");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: option {key} describes a single run; it needs --runs 1\n"),
            "{line}"
        );
    }
    assert!(!std::path::Path::new("tl.json").exists(), "no timeline was written");
}

#[test]
fn chaos_refuses_zero_runs() {
    let line = "chaos --nodes 300 --area 160 --runs 0";
    let out = gs3cli(line);
    assert_eq!(out.status.code(), Some(1), "{line}");
    assert!(out.stdout.is_empty(), "{line}: no network was built");
    assert_eq!(String::from_utf8_lossy(&out.stderr), "error: option --runs needs at least 1 run, got 0\n");
}

#[test]
fn watch_refuses_a_sample_period_that_rounds_to_zero() {
    for sample in ["0", "-1", "nan", "0.0000004"] {
        let line = format!("watch --nodes 60 --area 60 --duration 5 --sample {sample}");
        // A zero period never advances the clock: bound the wait so a
        // regression fails here instead of hanging the suite.
        let mut child = Command::new(env!("CARGO_BIN_EXE_gs3cli"))
            .args(line.split_whitespace())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut naps = 0;
        while child.try_wait().unwrap().is_none() {
            if naps == 250 {
                child.kill().unwrap();
                let _ = child.wait();
                panic!("{line}: still running after 250 naps of 20 ms");
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
            naps += 1;
        }
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{line}");
        assert!(out.stdout.is_empty(), "{line}: no network was built");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: option --sample needs a period of at least 1 µs, got {}\n", sample.parse::<f64>().unwrap()),
            "{line}"
        );
    }
}
