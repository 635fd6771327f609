//! Reference answers: every flight answer is compared with
//! `run_reference` over the materialized spec. Built after the timed
//! phase, so neither its time nor its memory reaches the reported
//! metrics.

use std::collections::BTreeMap;

use tlc_serve::QueryAnswer;
use tlc_ssb::reference::run_reference;
use tlc_ssb::{QueryId, SsbData, StreamSpec};

pub struct Checker {
    data: SsbData,
    memo: BTreeMap<&'static str, QueryAnswer>,
}

impl Checker {
    pub fn new(spec: &StreamSpec) -> Self {
        Checker {
            data: spec.materialize(),
            memo: BTreeMap::new(),
        }
    }

    /// Count the answers that differ from the reference.
    pub fn count_wrong<'a>(
        &mut self,
        answers: impl IntoIterator<Item = (QueryId, &'a QueryAnswer)>,
    ) -> u64 {
        let mut wrong = 0;
        for (q, got) in answers {
            let data = &self.data;
            let expected = self
                .memo
                .entry(q.name())
                .or_insert_with(|| QueryAnswer::Groups(run_reference(data, q)));
            if expected != got {
                eprintln!("perfbench: wrong answer for {}", q.name());
                wrong += 1;
            }
        }
        wrong
    }
}
