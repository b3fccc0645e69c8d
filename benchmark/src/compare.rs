//! `compare A.json B.json`: judges run set B against run set A (two files
//! written by `all`) metric by metric, one row per workload and metric.
//!
//! * A metric in an exact unit (simulated time, counts, ratios of counts)
//!   must read the same in A and B for every seed both ran (`no shared
//!   seed` when there is none: nothing to hold it to).
//! * A host-cost end-to-end metric is judged against its bound in
//!   `BENCHMARK.json`: `regressed` when B's median is worse than A's by
//!   more than the bound; `unresolved` when either side's run-to-run
//!   spread (interquartile range over median) is wider than the bound,
//!   unless every B run reads better than every A run.
//! * Host-cost per-layer metrics have no bound and are listed as `info`.
//!
//! Every ratio is printed with its base (A's median).

use std::collections::BTreeMap;
use std::process::ExitCode;

use gs3_core::json::{parse, JsonValue};

use crate::median;
use crate::metrics::is_host_unit;

/// `(workload, trace, metric)` → unit and `(seed, value)` per run.
type Table = BTreeMap<(String, u64, String), (String, Vec<(u64, f64)>)>;

/// `(workload, trace)` → failed operations over its runs.
type Failures = BTreeMap<(String, u64), u64>;

fn load(path: &str) -> Result<(Table, Failures), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = doc
        .get("results")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no results"))?;
    let mut table = Table::new();
    let mut failed = BTreeMap::new();
    for r in results {
        let field = |k: &str| r.get(k).ok_or(format!("{path}: result without {k}"));
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_u64().unwrap_or(0);
        let trace = field("trace")?.as_u64().unwrap_or(0);
        let result = field("result")?;
        *failed.entry((workload.clone(), trace)).or_insert(0) += result
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        let Some(metrics) = result.get("metrics").and_then(JsonValue::as_obj) else {
            continue;
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string();
            let slot = table
                .entry((workload.clone(), trace, name.clone()))
                .or_insert((unit, Vec::new()));
            slot.1.push((seed, value));
        }
    }
    Ok((table, failed))
}

/// `better` and `bound` of each end-to-end metric in `BENCHMARK.json`.
fn load_bounds(path: &str) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or(format!("{path}: no end_to_end"))?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string();
        let higher = m.get("better").and_then(JsonValue::as_str) == Some("higher");
        let bound = m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0);
        out.insert(name, (higher, bound));
    }
    Ok(out)
}

fn sorted(values: &[(u64, f64)]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().map(|(_, x)| *x).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Interquartile range over the median, quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them. `None` under 4 runs.
pub fn spread(v: &[f64]) -> Option<f64> {
    let n = v.len();
    if n < 4 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(v).abs())
}

pub fn run(a_path: &str, b_path: &str, spec_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?, load_bounds(spec_path)?)));
    let ((a, a_failed), (b, b_failed), bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<42} {:>16} {:>16} {:>22} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    let (mut bad, mut unresolved) = (0u32, 0u32);
    for ((workload, trace, metric), (unit, a_runs)) in &a {
        let Some((_, b_runs)) = b.get(&(workload.clone(), *trace, metric.clone())) else {
            println!("{workload:<14} {metric:<42} missing from B");
            bad += 1;
            continue;
        };
        let (av, bv) = (sorted(a_runs), sorted(b_runs));
        let (am, bm) = (median(&av), median(&bv));
        let ratio = if am == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4} of {am:.6}", bm / am)
        };
        let bound = bounds.get(metric).filter(|_| *trace == 0);
        let verdict = if !is_host_unit(unit) {
            let b_by_seed: BTreeMap<u64, f64> = b_runs.iter().copied().collect();
            let shared = a_runs
                .iter()
                .filter_map(|(seed, v)| Some((v, b_by_seed.get(seed)?)));
            let same = shared.clone().all(|(v, w)| w.to_bits() == v.to_bits());
            if shared.count() == 0 {
                "no shared seed".to_string()
            } else if same {
                "identical".to_string()
            } else {
                bad += 1;
                "DIFFERENT".to_string()
            }
        } else if let Some(&(higher, bound)) = bound {
            let worse = if higher {
                (am - bm) / am
            } else {
                (bm - am) / am
            };
            let wide = [spread(&av), spread(&bv)]
                .iter()
                .flatten()
                .any(|s| *s > bound);
            let b_always_better = if higher {
                bv.first() > av.last()
            } else {
                bv.last() < av.first()
            };
            if wide && !b_always_better {
                unresolved += 1;
                "unresolved".to_string()
            } else if worse > bound {
                bad += 1;
                format!("REGRESSED by {:.1}%", worse * 100.0)
            } else {
                "ok".to_string()
            }
        } else {
            "info".to_string()
        };
        let spreads = match (spread(&av), spread(&bv)) {
            (Some(x), Some(y)) => format!(" spread A {:.1}% B {:.1}%", x * 100.0, y * 100.0),
            _ => String::new(),
        };
        let bound_text = bound.map_or("-".to_string(), |(_, b)| format!("{:.0}%", b * 100.0));
        println!(
            "{workload:<14} {metric:<42} {am:>16.6} {bm:>16.6} {ratio:>22} {bound_text:>8}  {verdict}{spreads} [{unit}]"
        );
    }
    for (key, fa) in &a_failed {
        let fb = b_failed.get(key).copied().unwrap_or(0);
        println!(
            "{:<14} failed operations (trace {}): A {fa}  B {fb}",
            key.0, key.1
        );
        if fb > *fa {
            bad += 1;
        }
    }
    println!("{bad} regressed or different, {unresolved} unresolved");
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::spread;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert!(spread(&v[..3]).is_none());
    }
}
