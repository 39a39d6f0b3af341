//! `benchmark compare <a.jsonl> <b.jsonl>`: one row per workload x
//! end-to-end metric with both medians, quartiles and the registry's
//! bound, and a verdict. This is the tool for the A/A criterion (two sets
//! of runs of one commit must come out `same`) and for any later
//! before/after claim.

use crate::json::{self, Json};
use crate::registry::{END_TO_END, WORKLOADS};
use std::collections::BTreeMap;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let m = x.len();
    if m < 2 {
        return [x.first().copied().unwrap_or(0.0); 3];
    }
    std::array::from_fn(|i| {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// Lower is better for every end-to-end metric. When A's own spread
/// exceeds the bound the medians cannot resolve a difference of that
/// size: the row is `unresolved` unless every B run lies on one side of
/// every A run.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let [q1, med_a, q3] = quartiles(a);
    let med_b = quartiles(b)[1];
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if med_a > 0.0 && (q3 - q1) / med_a > bound {
        return if max(b) < min(a) {
            Verdict::Better
        } else if min(b) > max(a) {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let change = if med_a != 0.0 {
        (med_b - med_a) / med_a
    } else {
        0.0
    };
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One side's runs: workload -> metric -> values, plus failure counts.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}:{}: no `{k}`", n + 1))
        };
        if field("trace")?.as_f64() != Some(0.0) {
            continue; // end-to-end metrics come from untraced runs only
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let result = field("result")?;
        side.attempted += result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        side.failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        for (name, entry) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            if let Some(v) = entry.get("value").and_then(Json::as_f64) {
                side.values
                    .entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

/// Prints the table; returns the process exit code (1 on any `worse` row
/// or a higher failed share on the B side).
pub fn compare(path_a: &str, path_b: &str) -> Result<i32, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<13} {:<27} {:>3} {:>12} {:>12} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "n",
        "A q1",
        "A median",
        "A q3",
        "B median",
        "change",
        "spreadA",
        "bound"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for e in &END_TO_END {
            let key = (w.name.to_string(), e.name.to_string());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                continue;
            };
            let [q1, med_a, q3] = quartiles(va);
            let med_b = quartiles(vb)[1];
            let v = verdict(va, vb, e.bound);
            worse += (v == Verdict::Worse) as i32;
            println!(
                "{:<13} {:<27} {:>3} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>+7.2}% {:>6.2}% {:>6.2}%  {}",
                w.name,
                e.name,
                va.len().min(vb.len()),
                q1,
                med_a,
                q3,
                med_b,
                100.0 * (med_b - med_a) / med_a,
                100.0 * (q3 - q1) / med_a,
                100.0 * e.bound,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    let share = |s: &Side| {
        if s.attempted > 0.0 {
            s.failed / s.attempted
        } else {
            0.0
        }
    };
    println!("failed share: A {:.6}  B {:.6}", share(&a), share(&b));
    let more_failures = share(&b) > share(&a);
    if more_failures {
        println!("B fails a higher share of its operations than A");
    }
    Ok((worse > 0 || more_failures) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4)
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 100.5, 99.5, 100.2];
        assert_eq!(
            verdict(&a, &[100.1, 100.4, 99.9, 100.0, 100.6], 0.05),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &[110.0, 111.0, 109.0, 112.0, 110.5], 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[90.0, 91.0, 89.0, 92.0, 90.5], 0.05),
            Verdict::Better
        );
        let noisy = [100.0, 140.0, 90.0, 130.0, 105.0];
        assert_eq!(
            verdict(&noisy, &[100.0, 120.0, 95.0, 110.0, 99.0], 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[80.0, 85.0, 70.0, 60.0, 89.0], 0.05),
            Verdict::Better
        );
    }
}
