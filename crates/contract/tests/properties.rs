//! Property tests: the contract enforces a state machine.
//!
//! For any random operation sequence, driving the contract must (a) never
//! corrupt the ledger, (b) accept exactly the operations a reference state
//! machine accepts, and (c) leave queryable history identical to the
//! accepted-operation trace — on both data layouts.

use std::collections::HashMap;

use proptest::prelude::*;

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::{EntityId, Event, EventKind};
use supplychain_contract::{ContractError, DataLayout, SupplyChainContract};
use temporal_core::interval::Interval;
use temporal_core::m2::M2Engine;
use temporal_core::tqf::TqfEngine;
use temporal_core::TemporalEngine;

#[derive(Debug, Clone, Copy)]
struct Op {
    subject: u32,
    target: u32,
    load: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..4, 0u32..3, any::<bool>()).prop_map(|(subject, target, load)| Op {
        subject,
        target,
        load,
    })
}

/// Reference state machine mirroring the contract's rules.
#[derive(Default)]
struct Model {
    /// subject → (target, last event time) when currently loaded.
    loaded: HashMap<EntityId, EntityId>,
    /// subject → latest event time.
    latest: HashMap<EntityId, u64>,
    /// Accepted events in order.
    accepted: Vec<Event>,
}

impl Model {
    fn apply(&mut self, subject: EntityId, target: EntityId, time: u64, load: bool) -> bool {
        if let Some(&latest) = self.latest.get(&subject) {
            if time <= latest {
                return false;
            }
        }
        if load {
            if self.loaded.contains_key(&subject) {
                return false;
            }
            self.loaded.insert(subject, target);
        } else {
            match self.loaded.get(&subject) {
                Some(&actual) if actual == target => {
                    self.loaded.remove(&subject);
                }
                _ => return false,
            }
        }
        self.latest.insert(subject, time);
        self.accepted.push(Event {
            subject,
            target,
            time,
            kind: if load {
                EventKind::Load
            } else {
                EventKind::Unload
            },
        });
        true
    }
}

fn run_sequence(ops: &[Op], layout: DataLayout, dir: &std::path::Path) {
    let ledger = Ledger::open(dir, LedgerConfig::small_for_tests()).unwrap();
    let contract = SupplyChainContract::new(layout);
    let mut model = Model::default();
    let mut clock = 0u64;
    for op in ops {
        clock += 7;
        let subject = EntityId::shipment(op.subject);
        let target = EntityId::container(op.target);
        let result = match op.load {
            true => contract.load(&ledger, subject, target, clock),
            false => contract.unload(&ledger, subject, target, clock),
        };
        let model_accepts = model.apply(subject, target, clock, op.load);
        match result {
            Ok(tx) => {
                assert!(model_accepts, "contract accepted what the model rejects");
                ledger.submit(tx).unwrap();
                ledger.cut_block().unwrap();
            }
            Err(ContractError::Ledger(e)) => panic!("ledger error: {e}"),
            Err(_) => assert!(!model_accepts, "contract rejected what the model accepts"),
        }
    }
    // The accepted trace must be exactly what temporal queries see.
    let tau = Interval::new(0, clock.max(1));
    let engine: Box<dyn TemporalEngine> = match layout {
        DataLayout::Base => Box::new(TqfEngine),
        DataLayout::M2 { u } => Box::new(M2Engine { u }),
    };
    let mut got: Vec<Event> = Vec::new();
    for s in 0..4 {
        got.extend(
            engine
                .events_for_key(&ledger, EntityId::shipment(s), tau)
                .unwrap(),
        );
    }
    got.sort_by_key(|e| e.time);
    let mut want = model.accepted.clone();
    want.sort_by_key(|e| e.time);
    assert_eq!(got, want, "ledger history diverged from accepted trace");
    ledger.verify_chain().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn contract_matches_reference_model_base(
        ops in prop::collection::vec(op_strategy(), 1..40),
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "contract-prop-base-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        run_sequence(&ops, DataLayout::Base, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn contract_matches_reference_model_m2(
        ops in prop::collection::vec(op_strategy(), 1..40),
        u in prop::sample::select(vec![13u64, 50, 1000]),
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "contract-prop-m2-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        run_sequence(&ops, DataLayout::M2 { u }, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn container_level_rules_hold_too(
        ops in prop::collection::vec((0u32..3, 0u32..2, any::<bool>()), 1..30),
    ) {
        // Same contract driven at the container→truck level.
        let dir = std::env::temp_dir().join(format!(
            "contract-prop-cont-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        let contract = SupplyChainContract::new(DataLayout::Base);
        let mut clock = 0u64;
        let mut loaded: HashMap<u32, u32> = HashMap::new();
        for (c, t, load) in ops {
            clock += 3;
            let container = EntityId::container(c);
            let truck = EntityId::truck(t);
            let result = if load {
                contract.load(&ledger, container, truck, clock)
            } else {
                contract.unload(&ledger, container, truck, clock)
            };
            let expected_ok = if load {
                !loaded.contains_key(&c)
            } else {
                loaded.get(&c) == Some(&t)
            };
            prop_assert_eq!(result.is_ok(), expected_ok);
            if let Ok(tx) = result {
                ledger.submit(tx).unwrap();
                ledger.cut_block().unwrap();
                if load {
                    loaded.insert(c, t);
                } else {
                    loaded.remove(&c);
                }
            }
        }
        // Final locations agree with the model.
        for (c, t) in &loaded {
            let loc = contract
                .current_location(&ledger, EntityId::container(*c), clock + 1)
                .unwrap();
            prop_assert_eq!(loc, Some(EntityId::truck(*t)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
