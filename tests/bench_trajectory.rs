//! The paired benchmark trajectory, `BENCH_trajectory.jsonl`: one line per
//! workload and end-to-end metric of a build measured against an anchor
//! commit, as `scripts/anchor_pairs.sh` prints them. This checks that
//! every line parses and that its fields fit together; it gates on no
//! timing.

use std::collections::BTreeMap;

/// A JSON value of the shapes the file holds.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Num(f64),
    Null,
    List(Vec<Value>),
}

/// Parses one line: a flat object of strings, numbers, nulls and lists of
/// those.
fn parse_line(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        s: line.trim().as_bytes(),
        at: 0,
    };
    p.eat(b'{')?;
    let mut fields = BTreeMap::new();
    loop {
        let Value::Str(key) = p.value()? else {
            return Err(format!("a key at {}", p.at));
        };
        p.eat(b':')?;
        let value = p.value()?;
        if fields.insert(key.clone(), value).is_some() {
            return Err(format!("`{key}` twice"));
        }
        if p.peek() == Some(b'}') {
            p.eat(b'}')?;
            break;
        }
        p.eat(b',')?;
    }
    match p.peek() {
        None => Ok(fields),
        Some(_) => Err(format!("bytes after the object at {}", p.at)),
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> Option<u8> {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        self.s.get(self.at).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.at += 1;
                Ok(())
            }
            other => Err(format!("`{}` at {}, found {other:?}", b as char, self.at)),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => {
                self.at += 1;
                let len = self.s[self.at..].iter().position(|&c| c == b'"');
                let len = len.ok_or("an unterminated string")?;
                let text = std::str::from_utf8(&self.s[self.at..self.at + len]);
                self.at += len + 1;
                Ok(Value::Str(text.map_err(|e| e.to_string())?.to_string()))
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                while self.peek() != Some(b']') {
                    if !items.is_empty() {
                        self.eat(b',')?;
                    }
                    items.push(self.value()?);
                }
                self.at += 1;
                Ok(Value::List(items))
            }
            Some(b'n') if self.s[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(Value::Null)
            }
            _ => {
                let len = self.s[self.at..]
                    .iter()
                    .position(|c| !(c.is_ascii_digit() || b"+-.eE".contains(c)))
                    .unwrap_or(self.s.len() - self.at);
                let text = std::str::from_utf8(&self.s[self.at..self.at + len]).unwrap();
                self.at += len;
                text.parse()
                    .map(Value::Num)
                    .map_err(|_| format!("a value at {}", self.at - len))
            }
        }
    }
}

/// The `"name"`s of BENCHMARK.json's `section` list.
fn manifest_names(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("the section");
    let end = manifest[start..]
        .find(']')
        .map_or(manifest.len(), |e| start + e);
    manifest[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').unwrap()].to_string())
        .collect()
}

#[test]
fn every_trajectory_line_parses_and_its_fields_fit() {
    let root = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{root}/BENCH_trajectory.jsonl")).unwrap();
    let manifest = std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap();
    let (workloads, metrics) = (
        manifest_names(&manifest, "workloads"),
        manifest_names(&manifest, "end_to_end"),
    );
    assert!(workloads.len() >= 4 && metrics.len() >= 8);
    let mut lines = 0;
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("line {}", n + 1);
        let f = parse_line(line).unwrap_or_else(|e| panic!("{at}: {e}"));
        let num = |k: &str| match f.get(k) {
            Some(Value::Num(x)) => *x,
            other => panic!("{at}: `{k}` is {other:?}, not a number"),
        };
        let text = |k: &str| match f.get(k) {
            Some(Value::Str(s)) if !s.is_empty() => s.clone(),
            other => panic!("{at}: `{k}` is {other:?}, not a name"),
        };
        text("commit");
        text("anchor");
        assert!(workloads.contains(&text("workload")), "{at}: workload");
        assert!(metrics.contains(&text("metric")), "{at}: metric");
        let (commit, anchor) = (num("commit_median"), num("anchor_median"));
        assert!(commit >= 0.0 && anchor >= 0.0, "{at}: medians");
        match f.get("ratio") {
            Some(Value::Num(r)) if anchor > 0.0 => {
                assert!((r - commit / anchor).abs() <= 1e-9 * r.abs(), "{at}: ratio")
            }
            Some(Value::Num(r)) => assert!(*r == 1.0 && commit == 0.0, "{at}: ratio of 0/0"),
            Some(Value::Null) => assert!(anchor == 0.0 && commit > 0.0, "{at}: null ratio"),
            other => panic!("{at}: ratio {other:?}"),
        }
        let pairs = num("pairs");
        assert!(pairs >= 6.0 && pairs.fract() == 0.0, "{at}: {pairs} pairs");
        let seeds: Vec<Value> = (1..=pairs as i64).map(|s| Value::Num(s as f64)).collect();
        assert_eq!(
            f.get("seeds"),
            Some(&Value::List(seeds)),
            "{at}: seeds 1..=pairs"
        );
        assert!(num("seconds") > 0.0, "{at}: run length");
        assert!(num("nproc") >= 1.0, "{at}: nproc");
        assert_eq!(f.len(), 11, "{at}: {:?}", f.keys().collect::<Vec<_>>());
        lines += 1;
    }
    assert!(lines > 0, "the trajectory is empty");
}
