//! # veridic-verilog
//!
//! Verilog frontend and backend for the veridic RTL IR: a lexer and
//! recursive-descent parser for a synthesizable subset (the idioms of the
//! paper's Figure 6 "Verifiable RTL"), an elaborator producing
//! [`veridic_netlist::Design`]s, and a pretty-printer that emits
//! synthesizable Verilog back out.
//!
//! ```
//! use veridic_verilog::{parse, elaborate};
//!
//! let src = r#"
//! module leaf (input CK, input RESET, input [3:0] d, output [3:0] q);
//!   reg [3:0] state;
//!   always @(posedge CK or posedge RESET)
//!     if (RESET) state <= 4'b0000;
//!     else state <= d;
//!   assign q = state;
//! endmodule
//! "#;
//! let ast = parse(src)?;
//! let design = elaborate(&ast, "leaf")?;
//! assert_eq!(design.module("leaf").unwrap().regs.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod elab;
mod emit;
mod parser;
mod token;

pub use ast::{
    AlwaysBlock, AlwaysKind, AstExpr, Dir, InstanceDecl, ModuleDecl, NetDecl, NetKind, PortDecl,
    SourceFile, Stmt, Target,
};
pub use elab::{elaborate, ElabError};
pub use emit::{emit_design, emit_module};
pub use parser::{parse, ParseError};
pub use token::{lex, LexError, Tok, Token};

#[cfg(test)]
mod tests {
    use super::*;
    use veridic_netlist::Value;

    /// Figure 6 of the paper, lightly adapted to the supported subset.
    const FIGURE6: &str = r#"
module B (
  input CK,
  input RESET,
  input [1:0] I_ERR_INJ_C,
  input [3:0] I_ERR_INJ_D,
  input [3:0] ns,
  input [3:0] cnt_next,
  output [3:0] cs_out,
  output [3:0] cnt_out
);
  reg [3:0] cs;
  reg [3:0] cnt;
  always @(posedge CK or posedge RESET)
    if (RESET) cs <= 4'b1_000;
    else if (I_ERR_INJ_C[0]) cs <= I_ERR_INJ_D;
    else cs <= ns;
  always @(posedge CK or posedge RESET)
    if (RESET) cnt <= 4'b1_000;
    else if (I_ERR_INJ_C[1]) cnt <= I_ERR_INJ_D;
    else cnt <= cnt_next;
  assign cs_out = cs;
  assign cnt_out = cnt;
endmodule

module A (
  input CK,
  input RESET,
  input [3:0] ns,
  input [3:0] cnt_next,
  output [3:0] cs_out,
  output [3:0] cnt_out
);
  B B_in_A (
    .CK(CK),
    .RESET(RESET),
    .I_ERR_INJ_C(2'b00),
    .I_ERR_INJ_D(4'b0000),
    .ns(ns),
    .cnt_next(cnt_next),
    .cs_out(cs_out),
    .cnt_out(cnt_out)
  );
endmodule
"#;

    #[test]
    fn figure6_elaborates() {
        let ast = parse(FIGURE6).unwrap();
        let d = elaborate(&ast, "A").unwrap();
        let b = d.module("B").unwrap();
        assert_eq!(b.regs.len(), 2);
        assert_eq!(b.regs[0].reset_value, Value::from_u64(4, 0b1000));
        // CK/RESET are implicit: not IR ports.
        assert!(b.find_port("CK").is_none());
        assert_eq!(b.inputs().count(), 4);
        let a = d.module("A").unwrap();
        assert_eq!(a.instances.len(), 1);
        // Error injection tie-off: EC tied to zero constant.
        let inst = &a.instances[0];
        match inst.conns.get("I_ERR_INJ_C") {
            Some(veridic_netlist::Conn::In(e)) => match a.arena.node(*e) {
                veridic_netlist::Expr::Const(v) => assert!(v.is_zero()),
                other => panic!("expected constant tie-off, got {other:?}"),
            },
            other => panic!("missing tie-off: {other:?}"),
        }
    }

    #[test]
    fn figure6_flattens_and_lowers() {
        let ast = parse(FIGURE6).unwrap();
        let d = elaborate(&ast, "A").unwrap();
        let flat = d.flatten().unwrap();
        flat.validate().unwrap();
        let lowered = flat.to_aig().unwrap();
        assert_eq!(lowered.aig.num_latches(), 8);
        // Reset values: both regs init to 0b1000.
        let inits: Vec<bool> = lowered.aig.latches().iter().map(|l| l.init).collect();
        assert_eq!(
            inits,
            vec![false, false, false, true, false, false, false, true]
        );
    }

    /// Emitting and re-parsing preserves module structure and semantics.
    #[test]
    fn roundtrip_emit_parse() {
        let ast = parse(FIGURE6).unwrap();
        let d = elaborate(&ast, "A").unwrap();
        let src2 = emit_design(&d);
        let ast2 = parse(&src2).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{src2}"));
        let d2 = elaborate(&ast2, "A").unwrap();
        let b1 = d.module("B").unwrap();
        let b2 = d2.module("B").unwrap();
        assert_eq!(b1.regs.len(), b2.regs.len());
        assert_eq!(b1.ports.len(), b2.ports.len());
        // Semantics: identical AIG simulation on a fixed input sequence.
        let f1 = d.flatten().unwrap().to_aig().unwrap();
        let f2 = d2.flatten().unwrap().to_aig().unwrap();
        assert_eq!(f1.aig.num_inputs(), f2.aig.num_inputs());
        let seq: Vec<Vec<bool>> = (0..8)
            .map(|k| (0..f1.aig.num_inputs()).map(|i| (k + i) % 3 == 0).collect())
            .collect();
        let r1 = f1.aig.simulate(&seq);
        let r2 = f2.aig.simulate(&seq);
        for (c1, c2) in r1.iter().zip(&r2) {
            assert_eq!(c1.outputs, c2.outputs);
        }
    }

    #[test]
    fn comb_always_with_case() {
        let src = r#"
module dec (input [1:0] s, output reg [3:0] y);
  always @(*)
    case (s)
      2'b00: y = 4'b0001;
      2'b01: y = 4'b0010;
      2'b10: y = 4'b0100;
      default: y = 4'b1000;
    endcase
endmodule
"#;
        let d = elaborate(&parse(src).unwrap(), "dec").unwrap();
        let m = d.module("dec").unwrap();
        m.validate().unwrap();
        let lowered = m.to_aig().unwrap();
        // Exhaustive check of the decoder truth table.
        for s in 0..4u64 {
            let rep = lowered
                .aig
                .simulate(&[(0..2).map(|i| s >> i & 1 == 1).collect::<Vec<bool>>()]);
            let y: u64 = rep[0]
                .outputs
                .iter()
                .enumerate()
                .map(|(i, b)| (*b as u64) << i)
                .sum();
            assert_eq!(y, 1 << s, "decode of {s}");
        }
    }

    #[test]
    fn incomplete_comb_assignment_rejected() {
        let src = r#"
module bad (input c, input [3:0] a, output reg [3:0] y);
  always @(*)
    if (c) y = a;
endmodule
"#;
        let err = elaborate(&parse(src).unwrap(), "bad").unwrap_err();
        assert!(err.message.contains("latch"), "got: {}", err.message);
    }

    #[test]
    fn blocking_in_clocked_rejected() {
        let src = r#"
module bad (input CK, input RESET, input [3:0] a, output [3:0] q);
  reg [3:0] r;
  always @(posedge CK or posedge RESET)
    if (RESET) r <= 4'b0000;
    else r = a;
  assign q = r;
endmodule
"#;
        let err = elaborate(&parse(src).unwrap(), "bad").unwrap_err();
        assert!(err.message.contains("non-blocking"), "got: {}", err.message);
    }

    #[test]
    fn nonblocking_reads_old_values() {
        // Classic swap: a <= b; b <= a; must exchange, not duplicate.
        let src = r#"
module swap (input CK, input RESET, output [1:0] o);
  reg a, b;
  always @(posedge CK or posedge RESET)
    if (RESET) begin a <= 1'b0; b <= 1'b1; end
    else begin a <= b; b <= a; end
  assign o = {a, b};
endmodule
"#;
        let d = elaborate(&parse(src).unwrap(), "swap").unwrap();
        let lowered = d.module("swap").unwrap().to_aig().unwrap();
        let rep = lowered.aig.simulate(&vec![vec![]; 3]);
        // o = {a,b}: bit1 = a, bit0 = b. Cycle 0: a=0 b=1. Cycle 1: a=1 b=0.
        assert_eq!(rep[0].outputs, vec![true, false]);
        assert_eq!(rep[1].outputs, vec![false, true]);
        assert_eq!(rep[2].outputs, vec![true, false]);
    }

    #[test]
    fn parameters_fold_into_widths() {
        let src = r#"
module p (input [7:0] a, output [7:0] y);
  localparam W = 8, HALF = W / 2;
  assign y = a << HALF;
endmodule
"#;
        let d = elaborate(&parse(src).unwrap(), "p").unwrap();
        let m = d.module("p").unwrap();
        m.validate().unwrap();
        let lowered = m.to_aig().unwrap();
        let rep = lowered
            .aig
            .simulate(&[(0..8).map(|i| i == 0).collect::<Vec<bool>>()]);
        let y: u64 = rep[0]
            .outputs
            .iter()
            .enumerate()
            .map(|(i, b)| (*b as u64) << i)
            .sum();
        assert_eq!(y, 1 << 4);
    }

    #[test]
    fn slice_target_read_modify_write() {
        let src = r#"
module s (input CK, input RESET, input [3:0] d, output [7:0] q);
  reg [7:0] r;
  always @(posedge CK or posedge RESET)
    if (RESET) r <= 8'h00;
    else begin
      r[3:0] <= d;
      r[7] <= 1'b1;
    end
  assign q = r;
endmodule
"#;
        let d = elaborate(&parse(src).unwrap(), "s").unwrap();
        let m = d.module("s").unwrap();
        m.validate().unwrap();
        let lowered = m.to_aig().unwrap();
        // Drive d = 0b0101 for one cycle; q next cycle = 0b1000_0101
        // (bits 6:4 keep old value 0).
        let rep = lowered.aig.simulate(&[
            vec![true, false, true, false],
            vec![false, false, false, false],
        ]);
        let q1: u64 = rep[1]
            .outputs
            .iter()
            .enumerate()
            .map(|(i, b)| (*b as u64) << i)
            .sum();
        assert_eq!(q1, 0b1000_0101);
    }
}
