//! In-memory spans recorded around the calls into each layer.
//!
//! Spans are taken from the benchmark's own files only — nothing inside
//! `crates/` is instrumented. They are kept in memory during the run and
//! written out once, after measurement has ended.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes into the same span list; spans of
/// one transaction share `txn_seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub txn_seq: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder with one epoch, so spans of different threads share a
/// time base.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        txn_seq: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            txn_seq,
        });
        (self.spans.len() - 1) as u32
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once;
/// a child reaching outside its parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Mean self time in nanoseconds of the spans called `name`; 0 when none.
pub fn mean_self_ns(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .fold((0u64, 0u64), |(sum, n), (_, t)| (sum + t, n + 1));
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// Write the spans as one JSON array (`parent` is `null` for roots).
pub fn write_json(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"txn_seq\":{}}}{}",
            s.name, s.start_ns, s.end_ns, parent, s.txn_seq, sep
        )?;
    }
    w.write_all(b"]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            txn_seq: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("txn", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("b.inner", 45, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("txn", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 160, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // hangs over the end by 50
            span("d", 120, 130, Some(0)), // wholly inside a
        ];
        // covered: [110,160) = 50, [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn mean_self_time_is_per_name() {
        let spans = [
            span("x", 0, 10, None),
            span("x", 10, 40, None),
            span("y", 12, 20, Some(1)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(mean_self_ns(&spans, &st, "x"), 16.0);
        assert_eq!(mean_self_ns(&spans, &st, "y"), 8.0);
        assert_eq!(mean_self_ns(&spans, &st, "z"), 0.0);
    }
}
