//! IL007 fixture: the renderers `GET /status` reaches through the sink's
//! hook, outside the server module. The two allocations inside listed
//! functions must fire; the cold report renderer and the snapshot
//! accessor next to them (which do allocate, legitimately) stay silent.

impl DurabilityStatus {
    pub fn json_into(&self, out: &mut String) {
        out.push_str(&format!("\"wal_records\":{}", self.wal_records)); // positive 1
    }
}

impl DurableDataset {
    pub fn status_json_into(&self, out: &mut String) {
        let mut scratch = String::new(); // positive 2
        self.status().json_into(&mut scratch);
        out.push_str(&scratch);
    }

    pub fn status(&self) -> DurabilityStatus {
        // Negative: the copying accessor is for operators and tests.
        let _note = format!("{}", 1);
        self.mirror.clone()
    }
}

impl ShapeViolations {
    pub fn json(&self) -> String {
        // Negative: the 422 body is rendered on the cold update path.
        let mut out = String::new();
        out.push_str(&format!("{{\"total\":{}}}", self.total));
        out
    }
}
