//! Streaming event cursors — the lazy executor underneath every engine.
//!
//! Eager `Vec<Event>` retrieval forces a query to buffer a key's whole
//! event set before the join sees a single row. An [`EventCursor`] instead
//! pulls events one at a time, and because it sits directly on the
//! ledger's lazy [`fabric_ledger::HistoryIterator`], abandoning a cursor
//! early stops **block deserialization**, not just decoding: blocks past
//! the query window's end are simply never read. All three engines expose
//! a cursor through [`crate::engine::TemporalEngine::events_cursor`]; the
//! eager `events_for_key` is one provided [`drain`] of it, so both paths
//! yield bit-identical event streams by construction.
//!
//! Every cursor holds its operator span (`tqf.key`, `m1.key`, `m2.key`)
//! for as long as it is alive, so traces attribute per-block work to the
//! cursor that caused it — exactly as the eager path did.

use std::collections::VecDeque;

use fabric_ledger::{HistoryIterator, Ledger, Result};
use fabric_telemetry::SpanGuard;
use fabric_workload::{EntityId, Event};

use crate::engine::decode_event;
use crate::interval::Interval;

/// A pull-based stream of one key's events inside a query interval,
/// ascending by time. Implementations are lazy: work (block reads, value
/// decodes) happens inside [`EventCursor::next_event`], and dropping the
/// cursor abandons whatever the stream had not yet paid for.
pub trait EventCursor {
    /// The next event, or `None` when the stream is exhausted. After the
    /// first `None` (or the first error) the cursor keeps returning `None`.
    fn next_event(&mut self) -> Result<Option<Event>>;
}

/// Drain a cursor into a vector — the bridge back to the eager API.
pub fn drain(cursor: &mut dyn EventCursor) -> Result<Vec<Event>> {
    let mut out = Vec::new();
    while let Some(ev) = cursor.next_event()? {
        out.push(ev);
    }
    Ok(out)
}

/// Streaming TQF scan: a plain `GetHistoryForKey` walked lazily. Once an
/// event past `tau.end` appears, the underlying history iterator is
/// dropped on the spot and the remaining blocks are never deserialized.
///
/// Field order matters: `iter` (holding the open `ghfk` span) must drop
/// before `span` (the `tqf.key` operator span) to keep span nesting LIFO.
pub struct TqfCursor<'l> {
    key: EntityId,
    tau: Interval,
    iter: Option<HistoryIterator<'l>>,
    #[allow(dead_code)]
    span: SpanGuard,
}

impl<'l> TqfCursor<'l> {
    /// Full scan from the beginning of history (the paper's TQF).
    pub fn new(ledger: &'l Ledger, key: EntityId, tau: Interval) -> Result<Self> {
        let span = ledger
            .telemetry()
            .span("tqf.key")
            .with_label(key.to_string());
        let iter = ledger.get_history_for_key(&key.key())?;
        Ok(TqfCursor {
            key,
            tau,
            iter: Some(iter),
            span,
        })
    }

    /// Bounded residual scan: skips history entries whose recorded
    /// transaction timestamp is `<= after_ts` (see
    /// [`Ledger::get_history_for_key_from`]). Used as the fringe scan of
    /// hybrid plans; results are identical to [`TqfCursor::new`] whenever
    /// `tau.start >= after_ts`, because a skipped entry's events cannot lie
    /// inside `tau`.
    pub fn new_after(
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
        after_ts: u64,
    ) -> Result<Self> {
        let span = ledger
            .telemetry()
            .span("tqf.key")
            .with_label(key.to_string());
        let iter = ledger.get_history_for_key_from(&key.key(), after_ts)?;
        Ok(TqfCursor {
            key,
            tau,
            iter: Some(iter),
            span,
        })
    }
}

impl EventCursor for TqfCursor<'_> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        let Some(iter) = self.iter.as_mut() else {
            return Ok(None);
        };
        while let Some(state) = iter.next()? {
            let Some(value) = &state.value else {
                continue; // deletions carry no event payload
            };
            let event = decode_event(self.key, value)?;
            // History is in commit order and events were ingested sorted
            // by time: past te, drop the iterator so the remaining blocks
            // are never deserialized.
            if event.time > self.tau.end {
                self.iter = None;
                return Ok(None);
            }
            if self.tau.contains(event.time) {
                return Ok(Some(event));
            }
        }
        self.iter = None;
        Ok(None)
    }
}

/// What an M1 scan does once its indexed intervals are exhausted.
enum M1Tail<'l> {
    /// A residual window past the indexed horizon, not yet opened.
    Pending(Interval),
    /// The bounded base-data scan covering that window (boxed: the cursor
    /// holds span guards and iterator state, far larger than the other
    /// variants).
    Running(Box<TqfCursor<'l>>),
    /// Nothing (window fully indexed, or the tail fallback is disabled).
    Done,
}

/// Streaming M1 scan: one `GetHistoryForKey((k,θ))` per overlapping index
/// interval — issued only when the stream reaches that interval — followed
/// by a **bounded** base-data scan for any residual window past the
/// indexed horizon. The residual scan skips (by index timestamp) every
/// history entry the EV-sets already covered, where the eager engine used
/// to rescan base history from block 0.
pub struct M1Cursor<'l> {
    ledger: &'l Ledger,
    key: EntityId,
    tau: Interval,
    thetas: std::vec::IntoIter<Interval>,
    /// Events of the current index interval, already filtered to `tau`.
    pending: VecDeque<Event>,
    tail: M1Tail<'l>,
    #[allow(dead_code)]
    span: SpanGuard,
}

impl<'l> M1Cursor<'l> {
    /// Build from pre-resolved index intervals (ascending, overlapping
    /// `tau`) and an optional residual window. `span` is the open `m1.key`
    /// operator span. Called by `M1Engine::events_cursor`, which resolves
    /// the intervals from the on-chain metadata.
    pub(crate) fn new(
        ledger: &'l Ledger,
        key: EntityId,
        tau: Interval,
        thetas: Vec<Interval>,
        residual: Option<Interval>,
        span: SpanGuard,
    ) -> Self {
        M1Cursor {
            ledger,
            key,
            tau,
            thetas: thetas.into_iter(),
            pending: VecDeque::new(),
            tail: match residual {
                Some(window) => M1Tail::Pending(window),
                None => M1Tail::Done,
            },
            span,
        }
    }
}

impl EventCursor for M1Cursor<'_> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        loop {
            if let Some(ev) = self.pending.pop_front() {
                return Ok(Some(ev));
            }
            if let Some(theta) = self.thetas.next() {
                let mut buf = Vec::new();
                crate::m1::read_index(self.ledger, self.key, theta, self.tau, &mut buf)?;
                self.pending.extend(buf);
                continue;
            }
            match &mut self.tail {
                M1Tail::Pending(window) => {
                    let window = *window;
                    // Entries stamped at or before the residual window's
                    // start belong to the indexed range — skip them.
                    let cursor = TqfCursor::new_after(self.ledger, self.key, window, window.start)?;
                    self.tail = M1Tail::Running(Box::new(cursor));
                }
                M1Tail::Running(cursor) => match cursor.next_event()? {
                    Some(ev) => return Ok(Some(ev)),
                    None => self.tail = M1Tail::Done,
                },
                M1Tail::Done => return Ok(None),
            }
        }
    }
}

/// Streaming M2 scan: the composite-key range scan runs up front (cheap,
/// state-db only), then one lazy `GetHistoryForKey((k,θ))` per overlapping
/// interval, opened only when the stream reaches it. Each interval's
/// history is in time order, so once past `tau.end` the iterator is
/// abandoned and the blocks holding the rest of θ are never deserialized
/// (this is why the paper's u=50K numbers grow within a band as the query
/// window moves right, then drop at the next band).
pub struct M2Cursor<'l> {
    ledger: &'l Ledger,
    key: EntityId,
    tau: Interval,
    thetas: std::vec::IntoIter<Interval>,
    /// Open interval scan; the iterator (and its `ghfk` span) must drop
    /// before the `m2.theta` span, hence the tuple order.
    current: Option<(HistoryIterator<'l>, SpanGuard)>,
    #[allow(dead_code)]
    span: SpanGuard,
}

impl<'l> M2Cursor<'l> {
    /// Discover the key's overlapping index intervals and open the stream.
    pub fn new(ledger: &'l Ledger, key: EntityId, tau: Interval) -> Result<Self> {
        let span = ledger
            .telemetry()
            .span("m2.key")
            .with_label(key.to_string());
        // "From state-db, we find out all indexing intervals for key k
        // which overlap with τ. This is done using a range-scan query."
        let prefix = Interval::key_prefix(&key.key());
        let end = fabric_kvstore::prefix_end(&prefix);
        let rows = ledger.get_state_by_range(Some(&prefix), end.as_deref())?;
        let thetas: Vec<Interval> = rows
            .into_iter()
            .filter_map(|(composite, _)| {
                let (_, theta) = Interval::split_composite_key(&composite)?;
                theta.overlaps(&tau).then_some(theta)
            })
            .collect();
        Ok(M2Cursor {
            ledger,
            key,
            tau,
            thetas: thetas.into_iter(),
            current: None,
            span,
        })
    }
}

impl EventCursor for M2Cursor<'_> {
    fn next_event(&mut self) -> Result<Option<Event>> {
        loop {
            if let Some((iter, _theta_span)) = self.current.as_mut() {
                while let Some(state) = iter.next()? {
                    let Some(value) = &state.value else { continue };
                    let event = decode_event(self.key, value)?;
                    // The interval's history is in time order: past te the
                    // lazy iterator is abandoned and the blocks holding
                    // the rest of θ are never deserialized.
                    if event.time > self.tau.end {
                        break;
                    }
                    if self.tau.contains(event.time) {
                        return Ok(Some(event));
                    }
                }
                self.current = None;
                continue;
            }
            let Some(theta) = self.thetas.next() else {
                return Ok(None);
            };
            let theta_span = self
                .ledger
                .telemetry()
                .span("m2.theta")
                .with_label(theta.to_string());
            let iter = self
                .ledger
                .get_history_for_key(&theta.composite_key(&self.key.key()))?;
            self.current = Some((iter, theta_span));
        }
    }
}
