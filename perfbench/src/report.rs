//! Named metrics with units and sample counts, printed one per line
//! and as the closing JSON object.

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (1 for a single measurement).
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// `metric <name> = <value> <unit> (n=<samples>)`, one per line.
    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for m in &self.0 {
            println!(
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    /// The closing line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    pub fn json(&self, correct: bool, attempted: usize, failed: usize) -> Result<String, String> {
        let mut body = Vec::new();
        for m in &self.0 {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            body.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            body.join(",")
        ))
    }
}
