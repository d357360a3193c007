//! Regenerates the §8 observation: MOPS "Property 1" — the full privilege
//! model with 11 states and 9 symbols — has only **58** distinct
//! representative functions, far from the superexponential worst case.
//!
//! The original automaton is unpublished; this measures our POSIX-semantics
//! reconstruction (see `rasc_pdmc::properties::full_privilege_property`)
//! and, for context, the simple 3-state Figure 3 property.
//!
//! It also times the §8 claim that, once the monoid is known, composing
//! two annotations is a table lookup: memoized `MonoidAlgebra::compose`
//! on the full property, next to the bit-parallel gen/kill algebra's
//! compose (§3.3) for scale.

use std::time::Duration;

use rasc_automata::{Monoid, PropertySpec};
use rasc_core::algebra::{Algebra, GenKillAlgebra, MonoidAlgebra};
use rasc_devtools::bench;
use rasc_pdmc::properties;

fn main() {
    println!("§8: representative-function counts for realistic properties");
    println!();

    let (sigma3, dfa3) = PropertySpec::parse(properties::SIMPLE_PRIVILEGE)
        .expect("valid spec")
        .compile();
    let m3 = Monoid::of_dfa(&dfa3.minimize());
    println!(
        "Figure 3 privilege property: {} states, {} symbols, |F_M^≡| = {}",
        dfa3.minimize().len(),
        sigma3.len(),
        m3.len()
    );

    let (sigma, dfa) = properties::full_privilege_property();
    let minimal = dfa.minimize();
    let monoid = Monoid::of_dfa(&minimal);
    let n = minimal.len() as u64;
    println!(
        "full privilege property (reconstruction): {} states ({} raw), {} symbols",
        minimal.len(),
        dfa.len(),
        sigma.len()
    );
    println!(
        "|F_M^≡| = {}   (paper's Property 1: 11 states, 9 symbols, 58 functions)",
        monoid.len()
    );
    println!(
        "worst case |S|^|S| = {} — the measured monoid is {:.4}% of it",
        n.pow(n as u32),
        100.0 * monoid.len() as f64 / n.pow(n as u32) as f64
    );
    assert!(
        monoid.len() < 1000,
        "realistic property should have a tiny monoid"
    );

    // Memoized composition on the full property: after one warming pass
    // over every symbol pair, the steady state is a hash lookup.
    let mut alg = MonoidAlgebra::new(&dfa);
    let anns: Vec<_> = sigma.symbols().map(|s| alg.symbol(s)).collect();
    for &a in &anns {
        for &c in &anns {
            let _ = alg.compose(a, c);
        }
    }
    let (min_iters, min_time) = (1000, Duration::from_millis(200));
    let mut i = 0usize;
    let memoized = bench("property1_compose_memoized", min_iters, min_time, || {
        let a = anns[i % anns.len()];
        let c = anns[(i / anns.len()) % anns.len()];
        i += 1;
        alg.compose(a, c)
    });
    let mut gk = GenKillAlgebra::new(32);
    let t1 = gk.transfer(0xffff, 0xffff_0000);
    let t2 = gk.transfer(0x0f0f, 0xf0f0);
    let genkill = bench("genkill_compose", min_iters, min_time, || {
        gk.compose(t1, t2)
    });
    println!();
    for stats in [&memoized, &genkill] {
        println!(
            "{:<28} median {:.0} ns over {} iters",
            stats.name, stats.median_ns, stats.iters
        );
    }
}
