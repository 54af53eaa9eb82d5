//! The benchmark's own spans: one around each cycle, each operation and
//! each layer probe, with the program's phase spans folded under the
//! operation that ran them. Kept in memory, written out at exit.

use std::time::Instant;

use crate::json::{obj, Json};
use crate::sut::{Cycle, Phase};

pub struct Span {
    name: String,
    start: Instant,
    end: Instant,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Spans of one cycle share its id.
    cycle: Option<u64>,
    phases: Vec<Phase>,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn span(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        cycle: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
            cycle,
            phases: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// A cycle span with its four operations under it.
    pub fn cycle(&mut self, id: u64, traced: bool, cycle: &Cycle) {
        let name = if traced {
            "cycle.traced"
        } else {
            "cycle.untraced"
        };
        let parent = self.span(
            name,
            cycle.dump.start,
            cycle.degraded_restore.end,
            None,
            Some(id),
        );
        for (name, op) in cycle.ops() {
            let at = self.span(name, op.start, op.end, Some(parent), Some(id));
            self.spans[at].phases = op.phases.clone();
        }
    }

    pub fn to_json(&self) -> Json {
        let us = |t: Instant| Json::from(t.duration_since(self.epoch).as_secs_f64() * 1e6);
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", Json::from(id)),
                        ("name", Json::from(s.name.as_str())),
                        ("start_us", us(s.start)),
                        ("end_us", us(s.end)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("cycle", s.cycle.map_or(Json::Null, Json::from)),
                        (
                            "program_phases",
                            Json::Arr(
                                s.phases
                                    .iter()
                                    .map(|p| {
                                        obj([
                                            ("name", Json::from(p.name)),
                                            ("spans", Json::from(p.spans)),
                                            ("min_ms", Json::from(p.min_ms)),
                                            ("median_ms", Json::from(p.median_ms)),
                                            ("max_ms", Json::from(p.max_ms)),
                                            ("sum_ms", Json::from(p.sum_ms)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}
