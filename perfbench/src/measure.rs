//! Host-side measurement helpers: the wall clock, medians, the process's
//! resident-set figures, and the metric list the benchmark prints.
// tidy:allow-file(wall-clock): the benchmark harness times calls into the simulator from outside it; no reading feeds back into simulated behaviour

use std::time::{Duration, Instant};

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Seconds left until `deadline` (zero once it has passed).
pub fn remaining(deadline: Instant) -> f64 {
    deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64()
}

/// The instant `secs` seconds from now.
pub fn deadline_in(secs: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(secs)
}

/// The median of `xs` (the mean of the middle pair for an even count;
/// zero for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Reads one `kB` field (e.g. `VmHWM`, `VmRSS`) of `/proc/self/status`.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Resets the process's peak-RSS high-water mark to its current RSS, so
/// a later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux >= 4.0). Where it is
    // refused the mark covers the whole process, which is still an upper
    // bound; the benchmark measures its run first for that reason.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since process start or the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current resident set.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One named, unit-tagged number the benchmark reports.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered list of metrics under construction.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push(Metric { name, unit, value });
    }
}

/// `num / den`, or zero when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite reading is a
            // benchmark bug, reported as 0 rather than as invalid JSON.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("wall_s", "s", 1.25);
        m.put("bad", "s", f64::NAN);
        let line = result_json(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"bad\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
