//! §6.3 side effect: injection gates as ECO spares.
//!
//! "We performed ECO (post-route fixes) six times and we used these
//! remaining gates twice."

use veridic::prelude::*;

fn main() {
    println!("ECO replay: post-route fixes vs. injection spare gates");
    println!("{:<6} {:<12} Used injection spares?", "ECO", "Kind");
    let events = eco_replay();
    for e in &events {
        println!(
            "{:<6} {:<12} {}",
            e.index,
            format!("{:?}", e.kind),
            if e.used_injection_spares {
                "yes (tied-off selector muxes repurposed)"
            } else {
                "no (needs drive strength)"
            }
        );
    }
    let used = events.iter().filter(|e| e.used_injection_spares).count();
    println!();
    println!(
        "{used} of {} ECOs served from injection spares (paper: 2 of 6)",
        events.len()
    );
}
