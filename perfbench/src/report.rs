//! What one run reports: operation counts, check failures, metrics with
//! units, and the context record (kernel tier, cores, caches, seed,
//! corpus) that says which results may be compared.

use lc_json::Value;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// `BENCHMARK.json` metric name.
    pub name: String,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (each is checked).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure, for stderr.
    pub failures: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Context record fields.
    pub context: Vec<(String, Value)>,
}

impl Outcome {
    /// Count one operation; `ok` is the conjunction of its checks.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(what());
        }
    }

    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Add a context field.
    pub fn context(&mut self, key: &str, value: impl Into<Value>) {
        self.context.push((key.to_string(), value.into()));
    }

    /// Share of attempted operations that succeeded and were correct.
    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, in that order.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::object([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        });
        Value::object([
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
            ("metrics", Value::Object(metrics.collect())),
        ])
        .dump()
    }

    /// The full record kept on disk: the result plus its context.
    pub fn record(&self) -> Value {
        let mut v = Value::parse(&self.result_line()).expect("result line is valid JSON");
        if let Value::Object(fields) = &mut v {
            fields.push(("context".into(), Value::Object(self.context.clone())));
        }
        v
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .unwrap_or(f64::NAN)
}

/// Size in KiB of the data/unified cache at `level` as the kernel
/// reports it for cpu0 (0 when unknown).
pub fn cache_kib(level: u32) -> u64 {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(base) else {
        return 0;
    };
    for entry in entries.flatten() {
        let read = |f: &str| {
            std::fs::read_to_string(entry.path().join(f))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        if read("level") == level.to_string() && read("type") != "Instruction" {
            let size = read("size");
            let (num, mult) = match size.strip_suffix('K') {
                Some(n) => (n, 1),
                None => match size.strip_suffix('M') {
                    Some(n) => (n, 1024),
                    None => (size.as_str(), 1),
                },
            };
            return num.parse::<u64>().unwrap_or(0) * mult;
        }
    }
    0
}

/// Worker threads the benchmark may use: the machine's parallelism.
pub fn nproc() -> usize {
    lc_parallel::default_threads()
}

/// The context fields every result carries.
pub fn machine_context(out: &mut Outcome) {
    out.context(
        "kernel_tier",
        Value::from(lc_components::kernels::tier().label()),
    );
    out.context("nproc", Value::from(nproc() as u64));
    out.context("l2_kib", Value::from(cache_kib(2)));
    out.context("l3_kib", Value::from(cache_kib(3)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.op(true, String::new);
        o.op(false, || "bad".into());
        o.metric("setup_s", 0.5, "s");
        let v = Value::parse(&o.result_line()).unwrap();
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["attempted"].as_u64(), Some(2));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(o.ok_frac(), 0.5);
    }
}
