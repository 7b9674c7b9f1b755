//! Unit tests of the benchmark's `/proc` probes, sample statistics,
//! failure tally and scratch-leak check, plus consistency of the metric
//! lists with `BENCHMARK.json` and of the recorded work counts.

use perfbench::probes::{
    leftovers, parse_stat_faults, parse_vm_hwm, peak_rss_kib, reset_peak_rss, Faults, Samples,
    Tally,
};
use perfbench::workload::WORKLOADS;
use perfbench::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

#[test]
fn vm_hwm_is_read_from_status_text() {
    let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
    assert_eq!(parse_vm_hwm(status), Some(123_456));
    assert_eq!(parse_vm_hwm("VmRSS:\t1 kB\n"), None);
    assert_eq!(parse_vm_hwm("VmHWM:\t12 MB\n"), None, "only kB is understood");
}

#[test]
fn peak_rss_reset_forgets_a_freed_peak() {
    let big = 64 << 20;
    let before = peak_rss_kib().expect("VmHWM readable");
    let mut block = vec![0u8; big];
    // Touch every page so it is resident.
    for i in (0..big).step_by(4096) {
        block[i] = 1;
    }
    std::hint::black_box(&block);
    let with_block = peak_rss_kib().expect("VmHWM readable");
    assert!(with_block >= before + (big as u64 >> 10) / 2, "{before} -> {with_block} KiB");
    drop(block);
    reset_peak_rss().expect("clear_refs writable");
    let after = peak_rss_kib().expect("VmHWM readable");
    assert!(after + (big as u64 >> 10) / 2 <= with_block, "{with_block} -> {after} KiB");
}

#[test]
fn stat_faults_are_counted_past_a_tricky_command_name() {
    // pid (comm) state ppid pgrp session tty tpgid flags minflt cminflt majflt cmajflt ...
    let stat = "42 (a) b (c)) S 1 42 42 0 -1 4194560 100 20 3 4 5 6 7 8";
    assert_eq!(parse_stat_faults(stat), Some(Faults { minflt: 120, majflt: 7 }));
    assert_eq!(parse_stat_faults("42 (x) S 1 2"), None, "truncated stat");
    assert_eq!(parse_stat_faults("no parenthesis"), None);
}

#[test]
fn fault_deltas_grow_with_touched_memory() {
    let before = Faults::now().expect("/proc/self/stat readable");
    let mut block = vec![0u8; 32 << 20];
    for i in (0..block.len()).step_by(4096) {
        block[i] = 1;
    }
    std::hint::black_box(&block);
    let delta = Faults::now().expect("/proc/self/stat readable").since(before);
    assert!(delta.minflt >= 1000, "touching 32 MiB took {} minor faults", delta.minflt);
    assert_eq!(before.since(Faults::now().expect("readable")), Faults::default(), "saturates");
}

#[test]
fn median_handles_odd_even_and_empty_sets() {
    let mut s = Samples::new();
    assert_eq!(s.median(), None);
    for v in [3.0, 1.0, 2.0] {
        s.push(v);
    }
    assert_eq!(s.median(), Some(2.0));
    s.push(10.0);
    assert_eq!(s.median(), Some(2.5));
    assert_eq!(s.len(), 4);
    assert_eq!(s.values(), &[3.0, 1.0, 2.0, 10.0], "insertion order is kept");
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    let filled = |n: usize| {
        let mut s = Samples::new();
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    };
    assert_eq!(filled(39).tail(), None, "p75 of 39 leaves only 9 beyond");
    assert_eq!(filled(40).tail(), Some((75.0, 30.0)));
    assert_eq!(filled(100).tail(), Some((90.0, 90.0)));
    assert_eq!(filled(1000).tail(), Some((99.0, 990.0)));
    assert_eq!(filled(10_000).tail(), Some((99.9, 9990.0)));
}

#[test]
fn tally_counts_calls_and_flags() {
    let mut t = Tally::new();
    assert_eq!(t.fail_rate(), 0.0);
    t.pass();
    t.pass();
    t.fail("links differ");
    assert_eq!((t.attempted(), t.failed()), (3, 1));
    assert!((t.fail_rate() - 1.0 / 3.0).abs() < 1e-12);
    t.flag("scratch left behind");
    assert_eq!((t.attempted(), t.failed()), (4, 2), "a flag is a failed check, not a call");
    assert!((t.fail_rate() - 1.0 / 3.0).abs() < 1e-12, "flags leave the call rate alone");
    t.fail_all("links differ from the reference");
    assert_eq!((t.attempted(), t.failed(), t.fail_rate()), (4, 4, 1.0));
    assert_eq!(t.reasons().len(), 3);
    assert_eq!(t.to_string(), "3/3 calls failed");
}

#[test]
fn leftovers_lists_what_a_directory_still_holds() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-leftovers");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(leftovers(&dir).is_empty(), "a missing directory holds nothing");
    std::fs::create_dir_all(dir.join("sub")).expect("create test dir");
    std::fs::write(dir.join("run-0.snrr"), b"x").expect("write test file");
    let names: Vec<String> = leftovers(&dir)
        .iter()
        .map(|p| p.file_name().expect("entry name").to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["run-0.snrr", "sub"]);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    // Every listed workload is one the benchmark knows; `rmat18-driver2`
    // may be left out of the list (see the note on `WORKLOADS`).
    let listed = compact.matches("\"name\":").count();
    let known = WORKLOADS
        .iter()
        .filter(|w| compact.contains(&format!("\"name\":\"{}\",\"why\"", w.name)))
        .count();
    assert!(known >= 2, "BENCHMARK.json lists {known} known workloads");
    assert_eq!(listed, known + END_TO_END.len() + PER_LAYER.len());
}

#[test]
fn recorded_work_counts_cover_every_workload() {
    let text = include_str!("../expected_counts.json");
    let counts: BTreeMap<String, BTreeMap<String, u64>> =
        serde_json::from_str(text).expect("expected_counts.json parses");
    for w in WORKLOADS {
        let c = counts.get(w.name).unwrap_or_else(|| panic!("no counts for {}", w.name));
        for key in ["phases", "core.scored_pairs", "links.new_good", "links.new_bad"] {
            assert!(c.contains_key(key), "{} lacks {key}", w.name);
        }
    }
}
