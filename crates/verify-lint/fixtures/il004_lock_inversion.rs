//! Fixture: lock-order inversions in what the test presents as
//! `crates/persist/src/durable.rs`. The repo order says the persist state
//! mutex (rank 1) is acquired before the status mirror (rank 5, leaf).
//! IL004 must flag the direct inversion and the transitive one, and must
//! accept the correctly-ordered function.

impl DurableDataset {
    pub fn direct_inversion(&self) {
        let mirror = self.status_mirror.lock().unwrap_or_default();
        let state = self.state.lock().unwrap_or_default(); // finding: 1 after 5
        drop(state);
        drop(mirror);
    }

    pub fn transitive_inversion(&self) {
        let mirror = self.status_mirror.lock().unwrap_or_default();
        self.helper_taking_state(); // finding: callee acquires rank 1
        drop(mirror);
    }

    fn helper_taking_state(&self) {
        let state = self.state.lock().unwrap_or_default();
        drop(state);
    }

    pub fn correct_order(&self) {
        let state = self.state.lock().unwrap_or_default();
        let mirror = self.status_mirror.lock().unwrap_or_default();
        drop(mirror);
        drop(state);
    }

    pub fn sequential_not_nested(&self) {
        {
            let mirror = self.status_mirror.lock().unwrap_or_default();
            drop(mirror);
        }
        // The mirror guard is dead here: taking rank 1 now is fine.
        let state = self.state.lock().unwrap_or_default();
        drop(state);
    }
}
