//! Invariants of the committed figures, read from their text: `results/`
//! (the default 1/8 memory miniature) and `results/scale1/` (the paper's
//! sizes). `make results-check` proves the files are what `gsim repro`
//! prints; these tests say what the files must show.

use std::collections::BTreeSet;
use std::path::Path;

/// The two committed operating points, as directories under the root.
const SCALES: [&str; 2] = ["results", "results/scale1"];

/// Every (directory, figure) in which scale-model's average error is not
/// strictly the lowest of the five methods. In Fig. 8 it ties with
/// power-law (one doubling, no cliff: both are `2·C`); at the paper's
/// sizes it trails the baselines in Fig. 6. A figure that starts passing
/// must be taken off this list, and one that starts failing must be put
/// on it in the change that makes it fail.
const KNOWN_BAD: [(&str, &str); 3] = [
    ("results", "fig8"),
    ("results/scale1", "fig6"),
    ("results/scale1", "fig8"),
];

/// Per directory and figure, the per-benchmark rows whose scale-model
/// cell reads the same as the power-law cell. With one doubling from the
/// larger scale model and no cliff, both methods predict `2·C` (DESIGN.md
/// §7): Fig. 6's six 32-SM rows and Fig. 8's five rows. In Fig. 4 the
/// two predictions differ, but on some near-linear benchmarks their
/// errors round to the same tenth.
const SAME_AS_POWER_LAW: [(&str, &str, usize); 8] = [
    ("results", "fig4a", 0),
    ("results", "fig4b", 1),
    ("results", "fig6", 6),
    ("results", "fig8", 5),
    ("results/scale1", "fig4a", 2),
    ("results/scale1", "fig4b", 5),
    ("results/scale1", "fig6", 6),
    ("results/scale1", "fig8", 5),
];

/// One rendered table: the header cells (split on runs of two or more
/// spaces, so "sim speedup" stays one cell), the line above the header,
/// and the rows split on whitespace.
struct Table {
    label: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn column(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name} in {:?}", self.header))
    }
}

fn read(dir: &str, section: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("{dir}/{section}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every table of a section: a header line over a line of dashes, then
/// rows up to the next blank line.
fn tables(text: &str) -> Vec<Table> {
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for i in 1..lines.len() {
        if lines[i].is_empty() || !lines[i].chars().all(|c| c == '-') {
            continue;
        }
        let header = lines[i - 1]
            .split("  ")
            .map(str::trim)
            .filter(|h| !h.is_empty())
            .map(String::from)
            .collect();
        let rows = lines[i + 1..]
            .iter()
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().map(String::from).collect())
            .collect();
        let label = if i >= 2 { lines[i - 2] } else { "" };
        out.push(Table {
            label: label.to_string(),
            header,
            rows,
        });
    }
    out
}

/// The avg/max summaries of a figure, with the target they are for: one
/// per error figure, two in the appendix (64- and 128-SM targets).
fn summaries(dir: &str) -> Vec<(String, Table)> {
    let mut out = Vec::new();
    for fig in ["fig4a", "fig4b", "fig6", "fig8", "appendix"] {
        for t in tables(&read(dir, fig)) {
            if t.header[0] != "method" {
                continue;
            }
            let name = match t.label.as_str() {
                "[64-SM target]" => "appendix@64".to_string(),
                "[128-SM target]" => "appendix@128".to_string(),
                _ => fig.to_string(),
            };
            out.push((name, t));
        }
    }
    out
}

#[test]
fn every_scaling_class_matches_the_paper_at_both_scales() {
    for dir in SCALES {
        let text = read(dir, "table2");
        assert!(
            text.contains("; 21/21 match the paper)"),
            "{dir}/table2.txt:\n{text}"
        );
        assert_eq!(tables(&text)[0].rows.len(), 21, "{dir}/table2.txt");
    }
}

#[test]
fn scale_model_is_strictly_best_except_in_the_known_bad_figures() {
    let mut failing = BTreeSet::new();
    let mut figures = 0;
    for dir in SCALES {
        for (fig, t) in summaries(dir) {
            figures += 1;
            let avg = |row: &Vec<String>| row[1].parse::<f64>().expect("avg error");
            let sm = t.rows.iter().find(|r| r[0] == "scale-model").map(avg);
            let sm = sm.unwrap_or_else(|| panic!("{dir}/{fig}: no scale-model row"));
            let rivals = t.rows.iter().filter(|r| r[0] != "scale-model");
            assert_eq!(rivals.clone().count(), 4, "{dir}/{fig}");
            if rivals.map(avg).any(|e| e <= sm) {
                failing.insert((dir, fig));
            }
        }
    }
    assert_eq!(figures, 12, "six figures at each of two scales");
    let known: BTreeSet<(&str, String)> = KNOWN_BAD
        .iter()
        .map(|&(dir, fig)| (dir, fig.to_string()))
        .collect();
    assert_eq!(
        failing, known,
        "figures where scale-model is not strictly best"
    );
}

#[test]
fn scale_model_equals_power_law_on_exactly_the_pinned_rows() {
    for (dir, fig, expected) in SAME_AS_POWER_LAW {
        let t = tables(&read(dir, fig)).remove(0);
        let (pl, sm) = (t.column("power-law"), t.column("scale-model"));
        let same = t.rows.iter().filter(|r| r[pl] == r[sm]).count();
        assert_eq!(
            same, expected,
            "{dir}/{fig}: rows with scale-model = power-law"
        );
    }
}
