//! The harness's own span recorder: spans around the calls into each layer,
//! kept in a pre-allocated buffer per thread and written out after the
//! cluster has shut down. Spans inside the program are a later change.

use std::io::Write;

/// One timed interval. Spans of one worker-iteration share `id`
/// (`worker << 32 | iteration`); `parent` is the index, in the same buffer,
/// of the span that caused this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: Option<u32>,
}

/// Per-thread span buffer. A disabled buffer drops everything, so the
/// untraced repeats run the same worker loop.
#[derive(Debug, Default)]
pub struct SpanBuf {
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanBuf {
    pub fn disabled() -> Self {
        SpanBuf::default()
    }

    /// Room for `capacity` spans, allocated before the timed region.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            enabled: true,
        }
    }

    /// Record a span and return its index (for use as a later `parent`).
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Write one JSON object per span, one buffer after another.
pub fn write_jsonl<W: Write>(out: &mut W, buffers: &[(u32, &[Span])]) -> std::io::Result<()> {
    for (worker, spans) in buffers {
        for s in spans.iter() {
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"worker\":{worker},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id: 7,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children() {
        let spans = [
            span("iter", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
    }

    #[test]
    fn self_time_ignores_grandchildren_and_counts_overlap_once() {
        let spans = [
            span("iter", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            // Overlaps `a` by 10 ns and sticks out of the parent by 20 ns.
            span("b", 50, 120, Some(0)),
        ];
        // iter: 100 − union([10,60] ∪ [50,100]) = 100 − 90.
        assert_eq!(self_times_ns(&spans), vec![10, 40, 10, 70]);
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut buf = SpanBuf::disabled();
        assert_eq!(buf.push(span("x", 0, 1, None)), None);
        assert!(buf.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_pass_the_in_tree_validator() {
        let mut buf = SpanBuf::with_capacity(2);
        let root = buf.push(span("iter", 5, 9, None));
        buf.push(span("ml.loss_and_grad", 6, 8, root));
        let mut out = Vec::new();
        write_jsonl(&mut out, &[(1, buf.spans())]).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            fluentps_obs::json::validate(line).unwrap();
        }
        assert!(text.contains("\"parent\":0"));
    }
}
