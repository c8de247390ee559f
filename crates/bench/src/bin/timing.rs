//! §6.3 timing reproduction: the injection selector costs ~200 ps,
//! a few percent of the 250 MHz cycle — "no timing closure issue".

use veridic::prelude::*;

fn main() {
    let t = TimingReport::model();
    println!("Timing impact of the error-injection selector");
    println!("  selector (2:1 mux) delay : {:>7.0} ps", t.selector_ps);
    println!("  clock period @250 MHz    : {:>7.0} ps", t.period_ps);
    println!(
        "  selector share of cycle  : {:>6.1} %",
        t.percent_of_period()
    );
    println!();
    println!("(paper: 'about 200 ps that are about 4 % of total delay when");
    println!(" frequency is 250MHz. This timing delay was acceptable ... and");
    println!(" caused no timing closure issue.')");
}
