//! Text parser for the FIRRTL subset.
//!
//! Accepts the indentation-structured concrete syntax used by FIRRTL
//! emitters (Chisel, PyRTL, Yosys' `write_firrtl`), restricted to ground
//! types. The grammar:
//!
//! ```text
//! circuit Name :
//!   module Name :
//!     input  name : UInt<8>
//!     output name : UInt<8>
//!     wire   name : SInt<4>
//!     reg    name : UInt<8>, clock
//!     regreset name : UInt<8>, clock, reset, UInt<8>(0)
//!     node   name = add(a, b)
//!     name <= mux(c, t, f)
//!     inst   sub of SubModule
//!     mem    m : UInt<8>[16]
//!     when c :
//!       ...
//!     else :
//!       ...
//!     skip
//! ```
//!
//! `;`-to-end-of-line comments and blank lines are ignored. Indentation is
//! significant (any consistent widening indent opens a block).

use crate::ast::{Circuit, Direction, Expr, Module, Port, Stmt};
use crate::error::{FirrtlError, Result};
use crate::ops::PrimOp;
use crate::ty::Type;

/// Parses FIRRTL source text into a [`Circuit`].
///
/// # Errors
///
/// Returns [`FirrtlError::Parse`] with a 1-based line number on any lexical
/// or structural error.
///
/// # Examples
///
/// ```
/// let src = "\
/// circuit Top :
///   module Top :
///     input clock : Clock
///     input a : UInt<8>
///     output out : UInt<8>
///     reg r : UInt<8>, clock
///     r <= tail(add(a, r), 1)
///     out <= r
/// ";
/// let circuit = rteaal_firrtl::parser::parse(src)?;
/// assert_eq!(circuit.modules[0].ports.len(), 3);
/// # Ok::<(), rteaal_firrtl::error::FirrtlError>(())
/// ```
pub fn parse(src: &str) -> Result<Circuit> {
    let lines = lex_lines(src);
    let mut p = Parser { lines, pos: 0 };
    p.parse_circuit()
}

/// Deepest expression nesting the parser accepts. The parser itself and
/// the clone and drop of an `Expr` recurse on nesting depth (type
/// inference and graph construction walk with stacks of their own), and a
/// stack overflow is an abort no caller can catch. A design at this bound
/// compiles on a thread with the default
/// 2 MiB stack — in 1.6 MiB of it unoptimized, a fifth of that in a
/// release build; the corpus stays under it: the benchmark's chip nests
/// 301 deep, the full-scale BOOM-like one 951.
pub const MAX_EXPR_DEPTH: usize = 1024;

/// One meaningful source line, borrowed from the source text.
#[derive(Debug, Clone, Copy)]
struct Line<'s> {
    /// 1-based source line number.
    num: usize,
    /// Leading spaces (tabs count as 4).
    indent: usize,
    /// Trimmed text with comments stripped.
    text: &'s str,
}

fn lex_lines(src: &str) -> Vec<Line<'_>> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let text = raw.split(';').next().unwrap_or(raw).trim_end();
        let trimmed = text.trim_start();
        if trimmed.is_empty() {
            continue;
        }
        let indent = text[..text.len() - trimmed.len()]
            .chars()
            .map(|c| if c == '\t' { 4 } else { 1 })
            .sum();
        out.push(Line {
            num: i + 1,
            indent,
            text: trimmed,
        });
    }
    out
}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T> {
    Err(FirrtlError::Parse {
        line,
        msg: msg.into(),
    })
}

struct Parser<'s> {
    lines: Vec<Line<'s>>,
    pos: usize,
}

impl<'s> Parser<'s> {
    fn peek(&self) -> Option<Line<'s>> {
        self.lines.get(self.pos).copied()
    }

    fn parse_circuit(&mut self) -> Result<Circuit> {
        let Some(line) = self.peek() else {
            return err(1, "empty input");
        };
        let Some(name) = line.text.strip_prefix("circuit ") else {
            return err(line.num, "expected `circuit Name :`");
        };
        self.pos += 1;
        let mut circuit = Circuit::new(name.trim_end_matches(':').trim());
        while let Some(l) = self.peek() {
            if l.indent <= line.indent {
                return err(l.num, "unexpected content outside circuit body");
            }
            circuit.modules.push(self.parse_module()?);
        }
        if circuit.top().is_none() {
            return err(
                line.num,
                format!("no module named {} (the top)", circuit.name),
            );
        }
        Ok(circuit)
    }

    fn parse_module(&mut self) -> Result<Module> {
        let line = self.peek().expect("caller checked");
        let Some(name) = line.text.strip_prefix("module ") else {
            return err(line.num, "expected `module Name :`");
        };
        self.pos += 1;
        let mut module = Module::new(name.trim_end_matches(':').trim());
        let body_indent = match self.peek() {
            Some(l) if l.indent > line.indent => l.indent,
            _ => return Ok(module), // empty module
        };
        // Ports first, then statements (FIRRTL requires this ordering).
        while let Some(l) = self.peek() {
            if l.indent < body_indent {
                break;
            }
            let (rest, dir) = if let Some(rest) = l.text.strip_prefix("input ") {
                (rest, Direction::Input)
            } else if let Some(rest) = l.text.strip_prefix("output ") {
                (rest, Direction::Output)
            } else {
                break;
            };
            let (name, ty_text) = split_decl(l.num, rest)?;
            let (name, ty) = (name.to_string(), parse_type(l.num, ty_text)?);
            module.ports.push(Port { name, dir, ty });
            self.pos += 1;
        }
        module.body = self.parse_block(body_indent)?;
        Ok(module)
    }

    /// Parses statements at exactly `indent`, descending into `when` blocks.
    fn parse_block(&mut self, indent: usize) -> Result<Vec<Stmt>> {
        let mut body = Vec::new();
        while let Some(l) = self.peek() {
            if l.indent < indent {
                break;
            }
            if l.indent > indent {
                return err(l.num, "unexpected indentation");
            }
            if l.text.starts_with("module ") {
                break;
            }
            self.pos += 1;
            body.push(self.parse_stmt(l, indent)?);
        }
        Ok(body)
    }

    fn parse_stmt(&mut self, l: Line<'s>, indent: usize) -> Result<Stmt> {
        let text = l.text;
        if text == "skip" {
            return Ok(Stmt::Skip);
        }
        if let Some(rest) = text.strip_prefix("wire ") {
            let (name, ty_text) = split_decl(l.num, rest)?;
            return Ok(Stmt::Wire {
                name: name.to_string(),
                ty: parse_type(l.num, ty_text)?,
            });
        }
        for (keyword, what) in [
            ("regreset ", "regreset `Type, clock, reset, init`"),
            ("reg ", "reg `Type, clock`"),
        ] {
            if let Some(rest) = text.strip_prefix(keyword) {
                let (name, after) = split_decl(l.num, rest)?;
                let Some((ty_text, exprs)) = after.split_once(',') else {
                    return err(l.num, what);
                };
                let mut c = Cursor::new(l.num, exprs);
                let clock = c.expr(0)?;
                let reset = match keyword {
                    "reg " => None,
                    _ => Some((c.arg(what, false, 0)?, c.arg(what, false, 0)?)),
                };
                c.end()?;
                return Ok(Stmt::Reg {
                    name: name.to_string(),
                    ty: parse_type(l.num, ty_text)?,
                    clock,
                    reset,
                });
            }
        }
        if let Some(rest) = text.strip_prefix("node ") {
            let (name, value_text) = match rest.split_once('=') {
                Some((n, v)) => (n.trim(), v),
                None => return err(l.num, "expected `node name = expr`"),
            };
            return Ok(Stmt::Node {
                name: name.to_string(),
                value: parse_expr(l.num, value_text)?,
            });
        }
        if let Some(rest) = text.strip_prefix("inst ") {
            let (name, module) = match rest.split_once(" of ") {
                Some((n, m)) => (n.trim().to_string(), m.trim().to_string()),
                None => return err(l.num, "expected `inst name of Module`"),
            };
            return Ok(Stmt::Instance { name, module });
        }
        if let Some(rest) = text.strip_prefix("mem ") {
            let (name, spec) = split_decl(l.num, rest)?;
            // `UInt<8>[16]`
            let (ty_text, depth_text) = match spec.split_once('[') {
                Some((t, d)) => (t.trim(), d.trim_end_matches(']').trim()),
                None => return err(l.num, "expected `mem name : Type[depth]`"),
            };
            let ty = parse_type(l.num, ty_text)?;
            let depth: usize = match depth_text.parse() {
                Ok(d) => d,
                Err(_) => return err(l.num, format!("bad memory depth `{depth_text}`")),
            };
            return Ok(Stmt::Mem {
                name: name.to_string(),
                ty,
                depth,
                init: vec![],
            });
        }
        if let Some(rest) = text.strip_prefix("when ") {
            let cond = parse_expr(l.num, rest.trim_end_matches(':'))?;
            let then_indent = match self.peek() {
                Some(nl) if nl.indent > indent => nl.indent,
                _ => return err(l.num, "empty when body"),
            };
            let then_body = self.parse_block(then_indent)?;
            let mut else_body = Vec::new();
            if let Some(nl) = self.peek() {
                if nl.indent == indent && (nl.text == "else :" || nl.text == "else:") {
                    self.pos += 1;
                    let else_indent = match self.peek() {
                        Some(el) if el.indent > indent => el.indent,
                        _ => return err(l.num, "empty else body"),
                    };
                    else_body = self.parse_block(else_indent)?;
                }
            }
            return Ok(Stmt::When {
                cond,
                then_body,
                else_body,
            });
        }
        if let Some((target, value_text)) = text.split_once("<=") {
            let target = target.trim();
            if !is_ident(target) {
                return err(l.num, format!("bad connect target `{target}`"));
            }
            return Ok(Stmt::Connect {
                target: target.to_string(),
                value: parse_expr(l.num, value_text)?,
            });
        }
        err(l.num, format!("unrecognized statement `{text}`"))
    }
}

fn parse_type(line: usize, text: &str) -> Result<Type> {
    let text = text.trim();
    if text == "Clock" {
        return Ok(Type::Clock);
    }
    for (prefix, signed) in [("UInt<", false), ("SInt<", true)] {
        if let Some(rest) = text.strip_prefix(prefix) {
            let w = match rest.strip_suffix('>').and_then(|s| s.trim().parse().ok()) {
                Some(w) => checked_width(line, w)?,
                None => return err(line, format!("bad width in type `{text}`")),
            };
            return Ok(if signed { Type::SInt(w) } else { Type::UInt(w) });
        }
    }
    err(line, format!("unknown type `{text}`"))
}

/// The one width rule, for declared types and literals alike.
fn checked_width(line: usize, w: u32) -> Result<u32> {
    if w == 0 || w > crate::ty::MAX_WIDTH {
        return err(line, format!("width {w} out of range 1..=64"));
    }
    Ok(w)
}

fn split_decl(line: usize, rest: &str) -> Result<(&str, &str)> {
    match rest.split_once(':') {
        Some((n, t)) => Ok((n.trim(), t.trim())),
        None => err(line, "expected `name : ...`"),
    }
}

/// Parses `text` as exactly one expression.
fn parse_expr(line: usize, text: &str) -> Result<Expr> {
    let mut c = Cursor::new(line, text);
    let e = c.expr(0)?;
    c.end()?;
    Ok(e)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.' || c == '$'
}

fn is_ident(s: &str) -> bool {
    s.chars().all(is_ident_char) && s.chars().next().is_some_and(|c| !c.is_numeric())
}

/// A recursive-descent expression parser over one line: every method
/// consumes from `pos` and leaves it where it stopped, so no argument text
/// is split off or copied. What recurses — `expr` and the three call
/// forms — only parses; error messages are built in leaf methods, off the
/// frames that stack up [`MAX_EXPR_DEPTH`] deep.
struct Cursor<'s> {
    text: &'s str,
    pos: usize,
    line: usize,
}

impl<'s> Cursor<'s> {
    fn new(line: usize, text: &'s str) -> Self {
        Cursor { text, pos: 0, line }
    }

    /// What is left, with leading whitespace skipped.
    fn rest(&mut self) -> &'s str {
        let rest = self.text[self.pos..].trim_start();
        self.pos = self.text.len() - rest.len();
        rest
    }

    /// The error `msg`, naming what is left.
    fn fail<T>(&mut self, msg: String) -> Result<T> {
        match self.rest() {
            "" => err(self.line, format!("{msg} at the end of the line")),
            rest => err(self.line, format!("{msg} at `{rest:.24}`")),
        }
    }

    /// Steps over `byte`, the next thing `what` needs.
    fn expect(&mut self, byte: u8, what: &str) -> Result<()> {
        if self.rest().as_bytes().first() != Some(&byte) {
            return self.fail(format!("{what}: expected `{}`", byte as char));
        }
        self.pos += 1;
        Ok(())
    }

    /// Nothing but whitespace may be left.
    fn end(&mut self) -> Result<()> {
        match self.rest() {
            "" => Ok(()),
            _ => self.fail("unexpected text after the expression".to_string()),
        }
    }

    /// Consumes up to (not including) the first of the `stop` bytes, or
    /// everything.
    fn until(&mut self, stop: &[u8]) -> &'s str {
        let rest = &self.text[self.pos..];
        let n = rest.bytes().position(|b| stop.contains(&b));
        let n = n.unwrap_or(rest.len());
        self.pos += n;
        &rest[..n]
    }

    fn expr(&mut self, depth: usize) -> Result<Expr> {
        let rest = self.rest();
        let head = &rest[..rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len())];
        if depth > MAX_EXPR_DEPTH || !is_ident(head) {
            return self.no_expr(depth);
        }
        self.pos += head.len();
        match (head, self.rest().bytes().next()) {
            ("UInt", Some(b'<')) => self.literal(false),
            ("SInt", Some(b'<')) => self.literal(true),
            ("mux", Some(b'(')) => self.mux(depth + 1),
            ("validif", Some(b'(')) => self.validif(depth + 1),
            (_, Some(b'(')) => self.prim(head, depth + 1),
            _ => Ok(Expr::Ref(head.to_string())),
        }
    }

    /// Why no expression starts here, `depth` calls deep.
    fn no_expr<T>(&mut self, depth: usize) -> Result<T> {
        match depth > MAX_EXPR_DEPTH {
            true => self.fail(format!("expression nests deeper than {MAX_EXPR_DEPTH}")),
            false => self.fail("cannot parse expression: stopped".to_string()),
        }
    }

    /// `<width>(value)` of a literal: `UInt<8>(42)`, `SInt<8>(-3)`.
    fn literal(&mut self, signed: bool) -> Result<Expr> {
        self.pos += 1;
        let w_text = self.until(b">");
        self.expect(b'>', "literal")?;
        let width = match w_text.trim().parse() {
            Ok(w) => checked_width(self.line, w)?,
            Err(_) => return err(self.line, format!("bad literal width `{w_text}`")),
        };
        self.expect(b'(', "literal")?;
        let v_text = self.until(b")");
        self.expect(b')', "literal")?;
        let value = match signed {
            true => parse_int_i64(v_text).map(|value| Expr::SIntLit { value, width }),
            false => parse_int_u64(v_text).map(|value| Expr::UIntLit { value, width }),
        };
        value.ok_or_else(|| FirrtlError::Parse {
            line: self.line,
            msg: format!("bad literal value `{v_text}`"),
        })
    }

    /// The next argument of `what`: its `first`, after the parenthesis the
    /// cursor is on, or a later one, after a comma.
    fn arg(&mut self, what: &str, first: bool, depth: usize) -> Result<Expr> {
        if first {
            self.pos += 1;
        } else {
            self.expect(b',', what)?;
        }
        self.expr(depth)
    }

    fn mux(&mut self, depth: usize) -> Result<Expr> {
        let cond = Box::new(self.arg("mux", true, depth)?);
        let tval = Box::new(self.arg("mux", false, depth)?);
        let fval = Box::new(self.arg("mux", false, depth)?);
        self.expect(b')', "mux")?;
        Ok(Expr::Mux { cond, tval, fval })
    }

    fn validif(&mut self, depth: usize) -> Result<Expr> {
        let cond = Box::new(self.arg("validif", true, depth)?);
        let value = Box::new(self.arg("validif", false, depth)?);
        self.expect(b')', "validif")?;
        Ok(Expr::ValidIf { cond, value })
    }

    /// `(args..., params...)` of a primitive op.
    fn prim(&mut self, head: &str, depth: usize) -> Result<Expr> {
        let Some(op) = PrimOp::from_mnemonic(head) else {
            return err(self.line, format!("unknown operation `{head}`"));
        };
        let mut args = Vec::with_capacity(op.num_args());
        for k in 0..op.num_args() {
            args.push(self.arg(head, k == 0, depth)?);
        }
        let mut params = Vec::with_capacity(op.num_params());
        for _ in 0..op.num_params() {
            params.push(self.param(head)?);
        }
        self.expect(b')', head)?;
        Ok(Expr::Prim { op, args, params })
    }

    /// `, n`: the next static integer parameter of `head`.
    fn param(&mut self, head: &str) -> Result<u64> {
        self.expect(b',', head)?;
        let part = self.until(b",)");
        parse_int_u64(part).ok_or_else(|| FirrtlError::Parse {
            line: self.line,
            msg: format!("bad static parameter `{}` for {head}", part.trim()),
        })
    }
}

fn parse_int_u64(s: &str) -> Option<u64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_int_i64(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(rest) = s.strip_prefix('-') {
        parse_int_u64(rest).map(|v| (v as i64).wrapping_neg())
    } else {
        parse_int_u64(s).map(|v| v as i64)
    }
}

/// Pretty-prints a circuit back to parseable FIRRTL text (round-trip tested).
pub fn emit(circuit: &Circuit) -> String {
    let mut out = format!("circuit {} :\n", circuit.name);
    for module in &circuit.modules {
        out.push_str(&format!("  module {} :\n", module.name));
        for port in &module.ports {
            let dir = match port.dir {
                Direction::Input => "input",
                Direction::Output => "output",
            };
            out.push_str(&format!("    {dir} {} : {}\n", port.name, port.ty));
        }
        emit_body(&module.body, 4, &mut out);
    }
    out
}

fn emit_body(body: &[Stmt], indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    for stmt in body {
        match stmt {
            Stmt::Wire { name, ty } => out.push_str(&format!("{pad}wire {name} : {ty}\n")),
            Stmt::Reg {
                name,
                ty,
                clock,
                reset: None,
            } => {
                out.push_str(&format!("{pad}reg {name} : {ty}, {clock}\n"));
            }
            Stmt::Reg {
                name,
                ty,
                clock,
                reset: Some((r, i)),
            } => {
                out.push_str(&format!("{pad}regreset {name} : {ty}, {clock}, {r}, {i}\n"));
            }
            Stmt::Node { name, value } => out.push_str(&format!("{pad}node {name} = {value}\n")),
            Stmt::Connect { target, value } => {
                out.push_str(&format!("{pad}{target} <= {value}\n"));
            }
            Stmt::Instance { name, module } => {
                out.push_str(&format!("{pad}inst {name} of {module}\n"));
            }
            Stmt::Mem {
                name, ty, depth, ..
            } => {
                out.push_str(&format!("{pad}mem {name} : {ty}[{depth}]\n"));
            }
            Stmt::When {
                cond,
                then_body,
                else_body,
            } => {
                out.push_str(&format!("{pad}when {cond} :\n"));
                emit_body(then_body, indent + 2, out);
                if !else_body.is_empty() {
                    out.push_str(&format!("{pad}else :\n"));
                    emit_body(else_body, indent + 2, out);
                }
            }
            Stmt::Skip => out.push_str(&format!("{pad}skip\n")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTER: &str = "\
circuit Counter :
  module Counter :
    input clock : Clock
    input reset : UInt<1>
    output out : UInt<8>
    regreset count : UInt<8>, clock, reset, UInt<8>(0)
    count <= tail(add(count, UInt<8>(1)), 1)
    out <= count
";

    #[test]
    fn parses_counter() {
        let c = parse(COUNTER).unwrap();
        let top = c.top().unwrap();
        assert_eq!(top.ports.len(), 3);
        assert_eq!(top.body.len(), 3);
        assert!(matches!(top.body[0], Stmt::Reg { reset: Some(_), .. }));
    }

    #[test]
    fn parses_when_else() {
        let src = "\
circuit M :
  module M :
    input clock : Clock
    input c : UInt<1>
    output o : UInt<4>
    reg r : UInt<4>, clock
    when c :
      r <= UInt<4>(1)
    else :
      r <= UInt<4>(2)
    o <= r
";
        let c = parse(src).unwrap();
        let body = &c.top().unwrap().body;
        assert!(matches!(&body[1], Stmt::When { else_body, .. } if else_body.len() == 1));
    }

    #[test]
    fn parses_hierarchy_and_mem() {
        let src = "\
circuit Top :
  module Sub :
    input x : UInt<4>
    output y : UInt<4>
    y <= not(x)
  module Top :
    input clock : Clock
    input a : UInt<4>
    output o : UInt<4>
    inst s of Sub
    mem m : UInt<4>[8]
    s.x <= a
    m.raddr <= a
    m.waddr <= a
    m.wdata <= s.y
    m.wen <= UInt<1>(1)
    o <= m.rdata
";
        let c = parse(src).unwrap();
        assert_eq!(c.modules.len(), 2);
        let top = c.top().unwrap();
        assert!(top.body.iter().any(|s| matches!(s, Stmt::Instance { .. })));
        assert!(top
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Mem { depth: 8, .. })));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let src = "\
circuit M : ; the top
  module M :

    input a : UInt<1> ; an input
    output o : UInt<1>
    o <= a
";
        assert!(parse(src).is_ok());
    }

    #[test]
    fn error_has_line_number() {
        let src = "\
circuit M :
  module M :
    input a : UInt<1>
    output o : UInt<1>
    o <= frobnicate(a)
";
        match parse(src).unwrap_err() {
            FirrtlError::Parse { line, msg } => {
                assert_eq!(line, 5);
                assert!(msg.contains("frobnicate"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn literal_forms() {
        assert_eq!(parse_expr(1, "UInt<8>(0x2a)").unwrap(), Expr::u(42, 8));
        assert_eq!(parse_expr(1, "SInt<8>(-3)").unwrap(), Expr::s(-3, 8));
        assert_eq!(
            parse_expr(1, "bits(x, 7, 0)").unwrap(),
            Expr::prim_p(PrimOp::Bits, vec![Expr::r("x")], vec![7, 0])
        );
        assert!(parse_expr(1, "mux(a, b)").is_err());
        assert!(parse_expr(1, "7up").is_err());
    }

    #[test]
    fn emit_roundtrips() {
        let c1 = parse(COUNTER).unwrap();
        let emitted = emit(&c1);
        let c2 = parse(&emitted).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn missing_top_module_rejected() {
        let src = "\
circuit Top :
  module NotTop :
    input a : UInt<1>
    output o : UInt<1>
    o <= a
";
        assert!(parse(src).is_err());
    }
}
