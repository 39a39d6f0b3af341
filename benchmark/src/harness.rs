//! Timing, order statistics, in-memory spans, and host facts.

use crate::json::Json;
use std::time::Instant;

/// Order statistics of one sample set. `sorted` is ascending.
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`; 0 for an empty set.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.rank(q) {
            0 => 0.0,
            rank => self.sorted[rank - 1],
        }
    }

    /// 1-based nearest rank of quantile `q`; 0 for an empty set. The
    /// epsilon keeps `0.9 * 100` from ceiling to 91 on a rounding error.
    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64 - 1e-9).ceil() as usize).clamp(n.min(1), n)
    }

    /// A tail quantile only when at least ten samples lie beyond it
    /// (choosing-metrics guide, section 1); 0 otherwise.
    pub fn tail(&self, q: f64) -> f64 {
        if self.sorted.len() - self.rank(q) >= 10 {
            self.quantile(q)
        } else {
            0.0
        }
    }
}

/// Minimum over `reps` repetitions of the wall time of `f`, in
/// nanoseconds per inner operation (`f` reports how many it did).
pub fn min_ns_per_op(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let ops = f();
        let ns = t0.elapsed().as_nanos() as f64;
        best = best.min(ns / ops.max(1) as f64);
    }
    best
}

/// One recorded span. `parent` is 0 for a root; ids start at 1.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Statement sequence number shared by the spans of one statement
    /// (0 for probe spans).
    pub stmt: u64,
    pub counts: Vec<(&'static str, u64)>,
}

/// Spans are kept in memory and written once at exit. Timed code takes an
/// `Option<&mut Tracer>`, so the untraced path pays one branch per call.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    /// Statements begun so far, and the one now open (0 = none).
    stmts: u64,
    open_stmt: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            stmts: 0,
            open_stmt: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts the next statement: spans opened until its root span closes
    /// share its sequence number.
    pub fn begin_stmt(&mut self, name: &'static str) -> u32 {
        assert!(self.stack.is_empty(), "a statement's span is a root");
        self.stmts += 1;
        self.open_stmt = self.stmts;
        self.open(name)
    }

    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns: now,
            end_ns: now,
            stmt: self.open_stmt,
            counts: Vec::new(),
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: u32, counts: Vec<(&'static str, u64)>) {
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.counts = counts;
        if self.stack.is_empty() {
            self.open_stmt = 0;
        }
    }

    /// Runs `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id, Vec::new());
        out
    }

    /// Self time per span name: a span's duration minus the part its
    /// children cover. Returns `(name, spans, total self ns)` sorted by
    /// name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64)> = Default::default();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += own;
        }
        by_name.into_iter().map(|(n, (c, t))| (n, c, t)).collect()
    }

    /// One JSON array, one span per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let counts = s
                .counts
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                .collect();
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("stmt", Json::Num(s.stmt as f64)),
                ("counts", Json::Obj(counts)),
            ]);
            out.push_str(&line.render());
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc/self/status` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// First line of a command's stdout, or "unknown" (the driver's checkout
/// is not a git repository, and rustc may be off the PATH at run time).
fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts recorded with every result.
pub fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Removes every `SQLARRAY_*` variable, so no ambient knob (DOP, batch
/// rows, timeouts, budgets) reaches the engine; returns the names removed.
pub fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SQLARRAY_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let d = Dist::new((1..=100).map(f64::from).collect());
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.quantile(0.5), 50.0);
        assert_eq!(d.quantile(0.9), 90.0);
        assert_eq!(d.tail(0.9), 90.0);
        assert_eq!(d.tail(0.99), 0.0, "only one sample lies beyond p99 of 100");
        assert_eq!(Dist::new(vec![]).quantile(0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.begin_stmt("stmt.x");
        let child = t.open("child");
        t.close(child, vec![("rows", 3)]);
        t.close(root, Vec::new());
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        t.spans[1].start_ns = 10;
        t.spans[1].end_ns = 70;
        assert_eq!(t.self_times(), vec![("child", 1, 60), ("stmt.x", 1, 40)]);
        assert_eq!(t.spans[1].parent, 1);
        assert_eq!(t.spans[1].stmt, 1);
        let parsed = crate::json::parse(&t.to_json()).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 2);
    }
}
