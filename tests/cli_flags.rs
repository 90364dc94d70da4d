//! The `airshed` command line from the outside: the help text against the
//! golden captured from the binary that still kept it as one hand-written
//! string, and a table of bad command lines — each must exit non-zero,
//! name the flag it is about, and not panic.

use std::process::Command;

fn airshed(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_airshed"))
        .args(args)
        .output()
        .expect("airshed binary runs")
}

#[test]
fn help_is_byte_identical_to_the_golden() {
    let golden = include_str!("golden/airshed_help.txt");
    for args in [&["help"][..], &["validate", "--help"], &["-h", "run"]] {
        let out = airshed(args);
        assert!(out.status.success(), "{args:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{args:?}");
    }
}

#[test]
fn bad_command_lines_name_their_flag_and_do_not_panic() {
    let dir = std::env::temp_dir().join(format!("airshed-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenarios = dir.join("scenarios.txt");
    std::fs::write(
        &scenarios,
        "--dataset tiny:40 --hours 1\n--hours 1 --shards 2\n",
    )
    .unwrap();
    // A scenario line takes `run`'s options only, and the complaint says where.
    let scenario_file = format!("serve-batch --scenarios {}", scenarios.display());

    let bad = [
        ("run --hours x", "--hours"),
        ("run --threads -2", "--threads"),
        ("run --backend serial --threads 3", "--backend"),
        ("run --emis nan", "--emis"),
        ("run --emis inf", "--emis"),
        ("run --nodes 4,,8", "--nodes"),
        ("run --start 24", "--start"),
        ("ensemble --queries -1", "--queries"),
        ("ensemble --queries nan", "--queries"),
        ("ensemble --tolerance nan", "--tolerance"),
        ("ensemble --scale-range 0:inf", "--scale-range"),
        ("ensemble --members 1", "--members"),
        ("serve-batch --budget 0", "--budget"),
        ("fabric --kill-shard 9 --shards 2", "--kill-shard"),
        ("fabric --shards 2 --kill-shard 2", "--kill-shard"),
        ("gridinfo --shards 3", "--shards"),
        ("gridinfo --shards 3 --members 50", "--shards"),
        ("trace-merge --trace-out t.json", "--trace-out"),
        ("trace-merge", "--frontend"),
        ("shard --name s0", "--connect"),
        (scenario_file.as_str(), "scenarios.txt:2: --shards"),
    ];
    for (line, flag) in bad {
        let out = airshed(&line.split_whitespace().collect::<Vec<_>>());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`{line}` was accepted");
        assert!(stderr.contains(flag), "`{line}`: '{stderr}' lacks {flag}");
        assert!(!stderr.contains("panicked"), "`{line}` panicked: {stderr}");
        assert!(out.stdout.is_empty(), "`{line}` got as far as printing");
    }
    std::fs::remove_dir_all(&dir).ok();
}
