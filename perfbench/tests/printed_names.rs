//! Every workload and metric named in `BENCHMARK.json` is one the command
//! actually runs and prints, with the same unit, in both modes.

use std::process::Command;

/// `(name, unit)` of each entry of the array under `key`; `unit` is empty
/// for entries without one (workloads).
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let array = &body[body.find('[').expect("array opens")..body.find(']').expect("array closes")];
    array
        .split('{')
        .skip(1)
        .map(|entry| {
            (
                string_after(entry, "\"name\""),
                string_after(entry, "\"unit\""),
            )
        })
        .collect()
}

/// The string value following `key` in `text`, or empty.
fn string_after(text: &str, key: &str) -> String {
    let Some(at) = text.find(key) else {
        return String::new();
    };
    let rest = &text[at + key.len()..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = rest[open..].find('"').expect("value closes");
    rest[open..open + close].to_string()
}

/// `(name, unit)` of every metric in the command's last output line.
fn printed(last_line: &str) -> Vec<(String, String)> {
    let metrics = &last_line[last_line.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, \"")
        .map(|m| {
            let m = m.trim_start_matches("\"metrics\": {\"");
            let name = m[..m.find('"').expect("metric name ends")].to_string();
            (name, string_after(m, "\"unit\""))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_relserve-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "3",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let end_to_end = entries(&json, "end_to_end");
    let per_layer = entries(&json, "per_layer");
    let workloads = entries(&json, "workloads");
    assert!(!workloads.is_empty());
    // `indb-scoring` is not in BENCHMARK.json but prints the same names.
    let names = workloads.iter().map(|(w, _)| w.as_str());
    for workload in names.chain(["indb-scoring"]) {
        for (trace, expected) in [(0, &end_to_end), (1, &per_layer)] {
            let line = run(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            assert_eq!(&printed(&line), expected, "{workload} --trace {trace}");
        }
    }
}
