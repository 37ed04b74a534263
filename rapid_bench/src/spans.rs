//! The traced run's in-memory span tree. Spans are recorded from the
//! benchmark's own files, around the calls into each layer, kept in memory
//! and written out once when the workload ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `parent` indexes the same vector; spans of one
/// operation share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op_id: u32) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        let op_id = self.spans[parent].op_id;
        let id = self.open(name, Some(parent), op_id);
        let r = f();
        self.close(id);
        r
    }

    /// Per span, its duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<i128> {
        let mut out: Vec<i128> = self.spans.iter().map(|s| s.duration_ns() as i128).collect();
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| out.get_mut(p)) {
                *slot -= s.duration_ns() as i128;
            }
        }
        out
    }

    /// The tree invariants: a parent exists, precedes its child, belongs to
    /// the same operation and encloses it; siblings are recorded one after
    /// the other, so self time is never negative.
    pub fn validate(&self) -> Result<(), String> {
        let self_times = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.get(p).filter(|_| p < i) else {
                    return Err(format!("span {i} ({}) names a missing parent {p}", s.name));
                };
                if parent.op_id != s.op_id {
                    return Err(format!(
                        "span {i} ({}) and its parent differ in op_id",
                        s.name
                    ));
                }
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} ({}) lies outside its parent", s.name));
                }
            }
            if self_times[i] < 0 {
                return Err(format!("span {i} ({}) has negative self time", s.name));
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op_id\":{},\"self_ns\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id, self_times[i]
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: op,
        }
    }

    fn tree(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans,
        }
    }

    #[test]
    fn recorded_tree_is_valid_and_self_time_adds_up() {
        let mut t = Spans::default();
        let root = t.open("op", None, 7);
        let v = t.time("child", root, || (0..1000u64).sum::<u64>());
        assert_eq!(v, 499_500);
        t.time("child", root, || ());
        t.close(root);
        t.validate().expect("valid");
        assert_eq!(t.spans[1].op_id, 7);
        let children: u64 = t.spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(
            t.self_times()[root],
            (t.spans[0].duration_ns() - children) as i128
        );
        assert!(t.to_json().contains("\"name\":\"child\""));
    }

    #[test]
    fn broken_trees_are_rejected() {
        let missing = tree(vec![span("a", 0, 10, Some(3), 0)]);
        assert!(missing.validate().unwrap_err().contains("missing parent"));

        let outside = tree(vec![
            span("a", 0, 10, None, 0),
            span("b", 5, 12, Some(0), 0),
        ]);
        assert!(outside
            .validate()
            .unwrap_err()
            .contains("outside its parent"));

        let other_op = tree(vec![span("a", 0, 10, None, 0), span("b", 1, 2, Some(0), 1)]);
        assert!(other_op.validate().unwrap_err().contains("op_id"));

        // Overlapping children cover more than the parent lasts.
        let overlap = tree(vec![
            span("a", 0, 10, None, 0),
            span("b", 0, 8, Some(0), 0),
            span("c", 2, 10, Some(0), 0),
        ]);
        assert!(overlap
            .validate()
            .unwrap_err()
            .contains("negative self time"));
    }
}
