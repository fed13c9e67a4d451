//! Host-time spans for the traced runs.
//!
//! Spans are recorded in memory around the benchmark's calls into each
//! layer and written out when the run ends. A span's self time is its
//! duration minus the time its children cover; children never overlap,
//! so the self times of all spans plus the gaps between root spans add
//! up to the traced wall time exactly.
//!
//! Calls made once per simulated cycle are not spanned one by one: the
//! caller sums their busy time and call count and records one
//! [`Tracer::summed`] child per loop, laid out back to back at the start
//! of the loop's interval. Each such call is timed by one clock read,
//! whose cost is calibrated when the tracer starts and moved out of the
//! layer into a `bench.clock` span that no layer claims.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::Timed;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`ed.install`, `dap.pump`, …).
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Calls the span stands for (1 unless summed).
    pub count: u64,
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LayerTotal {
    /// Calls covered.
    pub count: u64,
    /// Self time, seconds.
    pub self_s: f64,
}

/// Name of the spans that hold the clock reads taken out of summed spans.
pub(crate) const CLOCK_SPAN: &str = "bench.clock";

/// Host cost of one `Instant::now()` in ns: the median, over 200 batches
/// of 5 000 back-to-back reads, of the batch's time per read.
#[must_use]
fn clock_read_ns() -> f64 {
    const BATCH: u32 = 5_000;
    let mut per_read: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                std::hint::black_box(Instant::now());
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(BATCH)
        })
        .collect();
    crate::median(&mut per_read)
}

/// An in-memory span recorder on the host clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    read_ns: f64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now, with the clock-read cost calibrated.
    #[must_use]
    pub fn new() -> Tracer {
        let read_ns = clock_read_ns();
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            read_ns,
        }
    }

    /// The calibrated cost of one clock read, ns.
    #[must_use]
    pub fn read_ns(&self) -> f64 {
        self.read_ns
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 1,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let now = self.now_ns();
        let i = self.open.pop().expect("end() without an open span");
        self.spans[i].end_ns = now;
    }

    /// Closes every open span (after a failed operation).
    pub fn end_all(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let v = f();
        self.end();
        v
    }

    /// Records `count` calls, each timed by one clock read and busy for
    /// `busy_ns` in total with those reads, as children of the innermost
    /// open span placed back to back from `start_ns`: `name` with the
    /// calls' own time, then a [`CLOCK_SPAN`] with the reads' calibrated
    /// cost. Returns where the two end.
    pub fn summed(&mut self, name: &'static str, start_ns: u64, busy_ns: u64, count: u64) -> u64 {
        // reason: call counts are far below 2^53 and the product is a
        // non-negative duration in ns.
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let clock_ns = ((count as f64 * self.read_ns).round() as u64).min(busy_ns);
        let parent = self.open.last().copied();
        let mid = start_ns + busy_ns - clock_ns;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: mid,
            count,
        });
        self.spans.push(Span {
            name: CLOCK_SPAN,
            parent,
            start_ns: mid,
            end_ns: start_ns + busy_ns,
            count,
        });
        start_ns + busy_ns
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order (seconds).
    #[must_use]
    // reason: span lengths are far below 2^53 ns.
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn self_times(&self) -> Vec<f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| (s.end_ns - s.start_ns) as f64 / 1e9 - c as f64 / 1e9)
            .collect()
    }

    /// Count and self time per span name.
    #[must_use]
    pub(crate) fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, self_s) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += s.count;
            t.self_s += self_s;
        }
        out
    }

    /// A Chrome trace (Perfetto loads it) of the host timeline, on its own
    /// `pid` so it never collides with the simulated-time exports (pid 1).
    #[must_use]
    pub fn chrome_json(&self, process_name: &str) -> String {
        use audo_obs::chrome::json_escape;
        const PID: u32 = 2;
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(process_name)
        ));
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":1,\
             \"args\":{{\"name\":\"host time\"}}}}"
        ));
        for s in &self.spans {
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{PID},\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"count\":{}}}}}",
                json_escape(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.count
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// The per-layer view of a traced run: self time per layer metric and the
/// unattributed remainder, which add up to the traced wall time.
#[derive(Debug)]
pub(crate) struct Breakdown {
    /// `(metric name, calls, self seconds)` for each mapped layer.
    pub layers: Vec<(&'static str, u64, f64)>,
    /// Traced wall time minus every layer's self time.
    pub unattributed_s: f64,
    /// Traced end-to-end wall time.
    pub traced_s: f64,
}

impl Breakdown {
    /// The breakdown of a trace whose root spans each cover one traced
    /// operation; the traced end-to-end time is their summed duration.
    /// Maps span names to layer metrics (`(span, metric)`); spans not in
    /// `map` (the roots, loop bookkeeping) count as unattributed.
    ///
    /// # Panics
    ///
    /// If a span has negative self time: overlapping children, a tracer
    /// bug that would break the accounting.
    #[must_use]
    pub fn of(tr: &Tracer, map: &[(&'static str, &'static str)]) -> Breakdown {
        // reason: nanosecond spans are far below 2^53.
        #[allow(clippy::cast_precision_loss)]
        let traced_s = tr
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum();
        for (s, self_s) in tr.spans().iter().zip(tr.self_times()) {
            assert!(
                self_s > -1e-9,
                "span {} has negative self time {self_s}",
                s.name
            );
        }
        let totals = tr.totals();
        let layers: Vec<_> = map
            .iter()
            .map(|&(span, metric)| {
                let t = totals.get(span).copied().unwrap_or_default();
                (metric, t.count, t.self_s)
            })
            .collect();
        let attributed: f64 = layers.iter().map(|l| l.2).sum();
        Breakdown {
            unattributed_s: traced_s - attributed,
            traced_s,
            layers,
        }
    }

    /// The metrics every traced run reports: the traced and untraced wall
    /// times of the same work (`untimed` holds the untraced runs, which
    /// alternate with the traced ones so both see the same host load),
    /// their overhead, each layer's self time, and the unattributed
    /// remainder under `unattributed`.
    #[must_use]
    pub fn metrics(&self, untimed: &Timed, unattributed: &'static str) -> Vec<(&'static str, f64)> {
        let untraced_s = untimed.wall.as_secs_f64();
        // reason: op counts are far below 2^53.
        #[allow(clippy::cast_precision_loss)]
        let mut out = vec![
            ("bench.traced_s", self.traced_s),
            ("bench.untraced_s", untraced_s),
            ("bench.overhead_frac", self.traced_s / untraced_s - 1.0),
            ("bench.ops", untimed.ops as f64),
            ("host.peak_rss_mb", untimed.peak_rss_mb),
            (unattributed, self.unattributed_s),
        ];
        out.extend(self.layers.iter().map(|&(n, _, s)| (n, s)));
        out
    }

    /// Self seconds of layer metric `name` (0 if not mapped).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|l| l.0 == name)
            .map_or(0.0, |l| l.2)
    }

    /// Renders the per-layer table: calls, self time, share of the traced
    /// time, and the end-to-end metric each layer moves.
    #[must_use]
    pub fn table(&self, workload: &str, unattributed: &str, moves: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{:<26} {:>12} {:>12} {:>7}  moves\n",
            format!("layer ({workload})"),
            "calls",
            "self_s",
            "share"
        );
        let share = |s: f64| 100.0 * s / self.traced_s.max(f64::MIN_POSITIVE);
        let moved = |m: &str| {
            moves
                .iter()
                .find(|(l, _)| *l == m)
                .map_or("", |(_, e)| *e)
                .to_string()
        };
        for &(name, calls, s) in &self.layers {
            out.push_str(&format!(
                "{name:<26} {calls:>12} {s:>12.6} {:>6.2}%  {}\n",
                share(s),
                moved(name)
            ));
        }
        out.push_str(&format!(
            "{unattributed:<26} {:>12} {:>12.6} {:>6.2}%  {}\n",
            "-",
            self.unattributed_s,
            share(self.unattributed_s),
            moved(unattributed)
        ));
        let sum: f64 = self.layers.iter().map(|l| l.2).sum::<f64>() + self.unattributed_s;
        out.push_str(&format!(
            "{:<26} {:>12} {sum:>12.6} {:>6.2}%  (traced end-to-end {:.6} s)\n",
            "sum",
            "-",
            share(sum),
            self.traced_s
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_and_unattributed_add_up_to_the_traced_time() {
        let mut tr = Tracer::new();
        tr.begin("root");
        tr.span("a", || std::hint::black_box((0..10_000u64).sum::<u64>()));
        let at = tr.now_ns();
        let busy = 7 * (tr.read_ns().ceil() as u64) + 1_000;
        assert_eq!(tr.summed("b", at, busy, 7), at + busy);
        tr.end();
        let b = Breakdown::of(&tr, &[("a", "a_s"), ("b", "b_s")]);
        let sum: f64 = b.layers.iter().map(|l| l.2).sum::<f64>() + b.unattributed_s;
        assert!((sum - b.traced_s).abs() < 1e-12);
        assert_eq!(b.layers[1].1, 7, "summed spans carry their call count");
        let clock = tr.totals()[CLOCK_SPAN].self_s;
        assert!(clock > 0.0 && clock <= 7.0 * tr.read_ns() / 1e9 + 1e-9);
        assert!(
            (b.layers[1].2 + clock - busy as f64 / 1e9).abs() < 1e-12,
            "the clock reads leave the layer and stay in the trace"
        );
        let json = tr.chrome_json("t");
        assert!(json.contains("\"pid\":2") && json.contains("\"name\":\"b\""));
    }
}
