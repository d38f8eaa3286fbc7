//! EXPERIMENTS.md's Table 2 quotes the committed `BENCH_queries.json`:
//! every measured cell (the number before the paper's value in
//! parentheses) must equal the matching row's counter exactly, so the
//! prose cannot drift from the artifact it cites.

use std::collections::HashMap;

fn repo_file(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + name;
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The raw text of `"key": value` in one flat JSON record line, quotes
/// stripped from string values.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// `(structure, workload, metric) -> value` for every counter of every
/// `BENCH_queries.json` result row.
fn bench_counters() -> HashMap<(String, String, &'static str), f64> {
    let mut out = HashMap::new();
    for line in repo_file("BENCH_queries.json").lines() {
        let (Some(structure), Some(workload)) = (field(line, "structure"), field(line, "workload"))
        else {
            continue;
        };
        for metric in ["disk_accesses", "seg_comps", "bbox_comps"] {
            let value = field(line, metric)
                .unwrap_or_else(|| panic!("{structure} / {workload}: no {metric}"))
                .parse()
                .unwrap_or_else(|e| panic!("{structure} / {workload} {metric}: {e}"));
            out.insert((structure.to_string(), workload.to_string(), metric), value);
        }
    }
    out
}

/// `(structure, workload, metric, measured value)` for every measured cell
/// of EXPERIMENTS.md's Table 2, in the `BENCH_queries.json` vocabulary.
fn table2_cells() -> Vec<(String, String, &'static str, f64)> {
    let doc = repo_file("EXPERIMENTS.md");
    let section = doc
        .split("\n## ")
        .find(|s| s.starts_with("Table 2"))
        .expect("EXPERIMENTS.md has a Table 2 section");
    let mut structures: Vec<String> = Vec::new();
    let mut workload = String::new();
    let mut cells = Vec::new();
    for line in section.lines().filter(|l| l.starts_with('|')) {
        let cols: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cols[0] == "query" {
            structures = cols[2..].iter().map(|s| s.replace('\\', "")).collect();
            continue;
        }
        if cols[0].starts_with("---") {
            continue;
        }
        if !cols[0].is_empty() {
            // "Nearest 2-stage" is the "Nearest (2-stage)" row.
            workload = match cols[0].split_once(' ') {
                Some((query, stage)) => format!("{query} ({stage})"),
                None => cols[0].to_string(),
            };
        }
        let metric = match cols[1] {
            "disk accesses" => "disk_accesses",
            "segment comps" => "seg_comps",
            "bbox/node comps" => "bbox_comps",
            other => panic!("unknown Table 2 metric {other:?}"),
        };
        for (structure, cell) in structures.iter().zip(&cols[2..]) {
            let measured = cell.split('(').next().unwrap().trim();
            let value = measured
                .parse()
                .unwrap_or_else(|e| panic!("{structure} / {workload} {metric}: {cell:?}: {e}"));
            cells.push((structure.clone(), workload.clone(), metric, value));
        }
    }
    cells
}

#[test]
fn experiments_table2_matches_bench_queries_json() {
    let bench = bench_counters();
    let cells = table2_cells();
    assert_eq!(cells.len(), 63, "7 queries x 3 metrics x 3 structures");
    let drifted: Vec<String> = cells
        .iter()
        .filter_map(|(structure, workload, metric, value)| {
            let key = (structure.clone(), workload.clone(), *metric);
            match bench.get(&key) {
                Some(want) if want == value => None,
                Some(want) => Some(format!(
                    "{structure} / {workload} {metric}: EXPERIMENTS.md {value}, BENCH_queries.json {want}"
                )),
                None => Some(format!(
                    "{structure} / {workload} {metric}: no BENCH_queries.json row"
                )),
            }
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "EXPERIMENTS.md Table 2 drifted from BENCH_queries.json:\n  {}",
        drifted.join("\n  ")
    );
}
