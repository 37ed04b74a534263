//! Atomic Transaction Engine (ATE): on-chip messaging between dpCores.
//!
//! The DPU has no cache coherency; cores coordinate exclusively through the
//! ATE, a 2-level crossbar (8 cores per macro × 4 macros) with hardware
//! mailboxes that guarantees **point-to-point ordering** (§2.4). The query
//! execution framework builds its actor model on top of this: explicit
//! sends/receives are what make the non-coherent caches safe.
//!
//! The simulator implements mailboxes with unbounded MPSC channels (one per
//! destination core), preserving per-sender FIFO ordering, and charges the
//! modelled crossbar latency to the sender's cycle account: a message within
//! a macro costs `ate_message_cycles`, one crossing a macro boundary adds
//! `ate_cross_macro_cycles`.

use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Mutex, MutexGuard};

use crate::account::CycleAccount;
use crate::clock::Cycles;
use crate::isa::CostModel;

/// Number of dpCores per macro on the DPU (8 cores × 4 macros = 32).
pub const CORES_PER_MACRO: usize = 8;

/// A message routed over the ATE crossbar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AteMessage<T> {
    /// Sending core id.
    pub from: usize,
    /// Payload.
    pub payload: T,
}

/// The crossbar: one mailbox per core. A mailbox's receiving end sits
/// behind a mutex so the crossbar can be shared between core threads.
#[derive(Debug)]
pub struct Ate<T> {
    senders: Vec<Sender<AteMessage<T>>>,
    receivers: Vec<Mutex<Receiver<AteMessage<T>>>>,
}

impl<T: Send> Ate<T> {
    /// Build an ATE connecting `cores` mailboxes.
    pub fn new(cores: usize) -> Self {
        let mut senders = Vec::with_capacity(cores);
        let mut receivers = Vec::with_capacity(cores);
        for _ in 0..cores {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            receivers.push(Mutex::new(rx));
        }
        Ate { senders, receivers }
    }

    /// Number of connected cores.
    pub fn cores(&self) -> usize {
        self.senders.len()
    }

    /// Whether two cores live in the same 8-core macro.
    pub fn same_macro(a: usize, b: usize) -> bool {
        a / CORES_PER_MACRO == b / CORES_PER_MACRO
    }

    /// Modelled latency of a `from -> to` message.
    pub fn message_cost(cm: &CostModel, from: usize, to: usize) -> Cycles {
        if Self::same_macro(from, to) {
            Cycles(cm.ate_message_cycles)
        } else {
            Cycles(cm.ate_message_cycles + cm.ate_cross_macro_cycles)
        }
    }

    /// Send `payload` from core `from` to core `to`, charging the sender.
    pub fn send(
        &self,
        cm: &CostModel,
        account: &mut CycleAccount,
        from: usize,
        to: usize,
        payload: T,
    ) -> Result<(), AteError> {
        let tx = self.senders.get(to).ok_or(AteError::NoSuchCore(to))?;
        account.charge_ate(Self::message_cost(cm, from, to));
        tx.send(AteMessage { from, payload })
            .map_err(|_| AteError::Disconnected(to))
    }

    fn mailbox(&self, core: usize) -> Result<MutexGuard<'_, Receiver<AteMessage<T>>>, AteError> {
        let rx = self.receivers.get(core).ok_or(AteError::NoSuchCore(core))?;
        Ok(rx.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Blocking receive on core `core`'s mailbox.
    pub fn recv(&self, core: usize) -> Result<AteMessage<T>, AteError> {
        let rx = self.mailbox(core)?;
        rx.recv().map_err(|_| AteError::Disconnected(core))
    }

    /// Non-blocking receive on core `core`'s mailbox.
    pub fn try_recv(&self, core: usize) -> Result<Option<AteMessage<T>>, AteError> {
        match self.mailbox(core)?.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(AteError::Disconnected(core)),
        }
    }
}

/// ATE routing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AteError {
    /// Destination core id out of range.
    NoSuchCore(usize),
    /// The destination mailbox was torn down.
    Disconnected(usize),
}

impl std::fmt::Display for AteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AteError::NoSuchCore(c) => write!(f, "no such core: {c}"),
            AteError::Disconnected(c) => write!(f, "mailbox for core {c} disconnected"),
        }
    }
}

impl std::error::Error for AteError {}

/// A sense-reversing barrier built on ATE-style message counting, with the
/// modelled cost of one message per participant per phase.
#[derive(Debug)]
pub struct AteBarrier {
    inner: std::sync::Barrier,
    parties: usize,
}

impl AteBarrier {
    /// Barrier across `parties` cores.
    pub fn new(parties: usize) -> Self {
        AteBarrier {
            inner: std::sync::Barrier::new(parties),
            parties,
        }
    }

    /// Number of participating cores.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Wait at the barrier, charging the arrive+release message pair.
    pub fn wait(&self, cm: &CostModel, account: &mut CycleAccount) {
        account.charge_ate(Cycles(
            2.0 * (cm.ate_message_cycles + cm.ate_cross_macro_cycles),
        ));
        self.inner.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_ordering_per_sender() {
        let cm = CostModel::default();
        let ate: Ate<u32> = Ate::new(4);
        let mut acc = CycleAccount::new();
        for v in 0..10 {
            ate.send(&cm, &mut acc, 0, 2, v).unwrap();
        }
        for v in 0..10 {
            let m = ate.recv(2).unwrap();
            assert_eq!(m.from, 0);
            assert_eq!(m.payload, v);
        }
    }

    #[test]
    fn cross_macro_costs_more() {
        let cm = CostModel::default();
        let near = Ate::<()>::message_cost(&cm, 0, 7);
        let far = Ate::<()>::message_cost(&cm, 0, 8);
        assert!(far.get() > near.get());
        assert!(Ate::<()>::same_macro(0, 7));
        assert!(!Ate::<()>::same_macro(7, 8));
    }

    #[test]
    fn send_charges_sender_account() {
        let cm = CostModel::default();
        let ate: Ate<u8> = Ate::new(2);
        let mut acc = CycleAccount::new();
        ate.send(&cm, &mut acc, 0, 1, 7).unwrap();
        assert!(acc.compute_cycles().get() >= cm.ate_message_cycles);
        assert_eq!(acc.counters().ate_messages, 1);
    }

    #[test]
    fn bad_destination_is_an_error() {
        let cm = CostModel::default();
        let ate: Ate<u8> = Ate::new(2);
        let mut acc = CycleAccount::new();
        assert_eq!(
            ate.send(&cm, &mut acc, 0, 9, 7),
            Err(AteError::NoSuchCore(9))
        );
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let ate: Ate<u8> = Ate::new(1);
        assert_eq!(ate.try_recv(0).unwrap(), None);
    }

    #[test]
    fn barrier_synchronizes_threads() {
        use std::sync::Arc;
        let cm = Arc::new(CostModel::default());
        let barrier = Arc::new(AteBarrier::new(4));
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (b, c, cm) = (Arc::clone(&barrier), Arc::clone(&counter), Arc::clone(&cm));
            handles.push(std::thread::spawn(move || {
                let mut acc = CycleAccount::new();
                c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                b.wait(&cm, &mut acc);
                // After the barrier, every thread must observe all arrivals.
                assert_eq!(c.load(std::sync::atomic::Ordering::SeqCst), 4);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
