//! `use … as` renames resolve to the banned definition, so an alias
//! cannot launder a default hasher or a clock read.

use std::collections::HashMap as Map; // line 4
use std::collections::{BTreeMap, HashSet as Uniq}; // line 5
use std::time::Instant as Clock;

/// Builds through every alias.
pub fn build() -> usize {
    let mut m = Map::new(); // line 10: `Map` is `HashMap`
    m.insert(1u32, 2u32);
    let u: Uniq<u32> = Uniq::new(); // line 12: twice, annotation and call
    let started = Clock::now(); // line 13: `Clock::now` is `Instant::now`
    let ok: BTreeMap<u32, u32> = BTreeMap::new();
    m.len() + u.len() + ok.len() + usize::from(started.elapsed().is_zero()) // line 15
}
