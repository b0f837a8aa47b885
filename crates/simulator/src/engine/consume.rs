//! The consume phase: between events each up node retires work at
//! `consume_rate` times its speed (the non-quiescent regime of §1). It owns
//! no state; its cost follows the resident work, not the domain.

use super::Engine;

impl Engine {
    /// Advances the clock to `t`, consuming work on every up node that
    /// holds any (scaled by the node's speed multiplier when heterogeneous
    /// speeds are set).
    ///
    /// Consuming on an empty node is a no-op (nothing completes, nothing is
    /// used, nothing is marked dirty), so the sweep is skipped outright
    /// while no task is resident, and otherwise runs word by word over the
    /// occupancy bitset: `occupied & !down` picks a word's consumers (a
    /// churned-out node's frozen tasks wait for it to rejoin), and
    /// `SystemState::consume_word` steps them in ascending id order,
    /// exactly as a node-by-node `consume_work` scan would. Then, once per
    /// word, the consumers not yet in the memo mark their shards dirty.
    pub(super) fn advance_time_to(&mut self, t: f64) {
        let dt = t - self.time;
        debug_assert!(dt >= -1e-9, "time went backwards: {} -> {}", self.time, t);
        if dt > 0.0 && self.config.consume_rate > 0.0 && self.state.resident_tasks() > 0 {
            let amount = dt * self.config.consume_rate;
            for (w, &down) in self.membership.down_words().iter().enumerate() {
                let live = self.state.occupied_words()[w] & !down;
                if live == 0 {
                    continue;
                }
                let (stepped, done) = self.state.consume_word(w, live, amount, &self.speeds);
                self.books.completed_tasks += done;
                self.sweep.mark_consumers(&self.state.topo, w, stepped);
            }
        }
        self.time = self.time.max(t);
    }
}
