//! The common interface all three query models implement.
//!
//! [`TemporalEngine`] abstracts "give me key `k`'s events inside `(ts, te]`"
//! — the primitive the paper's evaluation exercises through the temporal
//! join. `TQF`, `M1` and `M2` differ only in *how* they retrieve those
//! events (and therefore in how many blocks they deserialize); every engine
//! must return exactly the same event sets, which the integration tests
//! assert.

use std::collections::BTreeSet;

use fabric_ledger::{Ledger, Result};
use fabric_workload::{EntityId, EntityKind, Event};

use crate::cursor::{drain, EventCursor};
use crate::interval::Interval;

/// A strategy for answering temporal event queries on the ledger.
pub trait TemporalEngine {
    /// Name for reports ("TQF", "M1(u=2000)", …).
    fn name(&self) -> String;

    /// All ledger keys of `kind`, via state-db range scans.
    ///
    /// The provided default handles every layout in this crate: it scans
    /// the state database for the kind's key prefix and collapses
    /// interval-composite keys (M2's `(k,θ)` rows) down to their base
    /// entity, so plain TQF/M1 ledgers and M2 ledgers both resolve to the
    /// same sorted, deduplicated entity list.
    fn list_keys(&self, ledger: &Ledger, kind: EntityKind) -> Result<Vec<EntityId>> {
        let prefix = [kind.prefix()];
        let end = [kind.prefix() + 1];
        let rows = ledger.get_state_by_range(Some(&prefix), Some(&end))?;
        let mut keys = BTreeSet::new();
        for (k, _) in &rows {
            let base = match Interval::split_composite_key(k) {
                Some((base, _)) => base,
                None => &k[..],
            };
            if let Some(id) = EntityId::from_key(base) {
                keys.insert(id);
            }
        }
        Ok(keys.into_iter().collect())
    }

    /// A streaming cursor over every event of `key` with time in `tau`,
    /// ascending by time. Cursors are lazy: abandoning one early stops
    /// block deserialization.
    fn events_cursor<'l>(
        &self,
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
    ) -> Result<Box<dyn EventCursor + 'l>>;

    /// The events [`events_cursor`] streams, collected.
    ///
    /// [`events_cursor`]: TemporalEngine::events_cursor
    fn events_for_key(&self, ledger: &Ledger, key: EntityId, tau: Interval) -> Result<Vec<Event>> {
        drain(self.events_cursor(ledger, key, tau)?.as_mut())
    }
}

/// Decode a raw ledger value into an [`Event`] for `subject`, returning an
/// error on malformed payloads (index metadata never reaches this path).
pub fn decode_event(subject: EntityId, value: &[u8]) -> Result<Event> {
    Event::decode_value(subject, value).ok_or_else(|| {
        fabric_ledger::Error::InvalidArgument(format!(
            "value of key {subject} is not an event payload ({} bytes)",
            value.len()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_workload::EventKind;

    #[test]
    fn decode_event_roundtrips() {
        let ev = Event {
            subject: EntityId::shipment(1),
            target: EntityId::container(2),
            time: 99,
            kind: EventKind::Load,
        };
        let decoded = decode_event(EntityId::shipment(1), &ev.encode_value()).unwrap();
        assert_eq!(decoded, ev);
    }

    #[test]
    fn decode_event_rejects_garbage() {
        assert!(decode_event(EntityId::shipment(1), b"not an event").is_err());
    }
}
