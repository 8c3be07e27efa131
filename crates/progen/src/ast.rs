//! The structured program description.

use std::collections::{HashMap, HashSet};

use crate::codegen::{self, CompiledProgram};
use crate::error::ProgenError;

/// A statement of the structured DSL.
///
/// Statements are deliberately minimal: they capture exactly the control
/// structure that determines the instruction fetch stream (straight-line
/// runs, bounded loops, two-way branches, calls) and nothing else.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `count` straight-line ALU instructions (no memory traffic).
    Compute(u32),
    /// Statements executed in order.
    Seq(Vec<Stmt>),
    /// A counted loop whose body executes exactly `bound` times per entry.
    Loop {
        /// Number of body executions per loop entry (≥ 1).
        bound: u32,
        /// Loop body.
        body: Box<Stmt>,
    },
    /// A two-way branch. Generated code alternates sides deterministically
    /// at run time; the static analysis considers both.
    IfElse {
        /// Taken when the direction toggle is odd.
        then_branch: Box<Stmt>,
        /// Taken when the direction toggle is even.
        else_branch: Box<Stmt>,
    },
    /// A call to another function of the same program.
    Call(String),
}

/// Convenience constructors for [`Stmt`].
///
/// # Example
///
/// ```
/// use pwcet_progen::stmt;
///
/// let body = stmt::seq([
///     stmt::compute(4),
///     stmt::if_else(stmt::compute(2), stmt::compute(6)),
/// ]);
/// let nest = stmt::loop_(100, body);
/// ```
pub mod stmt {
    use super::Stmt;

    /// `count` straight-line instructions.
    pub fn compute(count: u32) -> Stmt {
        Stmt::Compute(count)
    }

    /// Statements in order.
    pub fn seq(stmts: impl IntoIterator<Item = Stmt>) -> Stmt {
        Stmt::Seq(stmts.into_iter().collect())
    }

    /// A counted loop executing `body` exactly `bound` times.
    pub fn loop_(bound: u32, body: Stmt) -> Stmt {
        Stmt::Loop {
            bound,
            body: Box::new(body),
        }
    }

    /// A two-way branch.
    pub fn if_else(then_branch: Stmt, else_branch: Stmt) -> Stmt {
        Stmt::IfElse {
            then_branch: Box::new(then_branch),
            else_branch: Box::new(else_branch),
        }
    }

    /// A call to the named function.
    pub fn call(name: impl Into<String>) -> Stmt {
        Stmt::Call(name.into())
    }
}

impl Stmt {
    /// Maximum loop nesting depth within this statement.
    pub fn loop_depth(&self) -> usize {
        match self {
            Stmt::Compute(_) | Stmt::Call(_) => 0,
            Stmt::Seq(items) => items.iter().map(Stmt::loop_depth).max().unwrap_or(0),
            Stmt::Loop { body, .. } => 1 + body.loop_depth(),
            Stmt::IfElse {
                then_branch,
                else_branch,
            } => then_branch.loop_depth().max(else_branch.loop_depth()),
        }
    }

    /// Names of all functions called (transitively within this statement).
    pub fn callees(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_callees(&mut out);
        out
    }

    fn collect_callees<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Stmt::Compute(_) => {}
            Stmt::Call(name) => out.push(name),
            Stmt::Seq(items) => items.iter().for_each(|s| s.collect_callees(out)),
            Stmt::Loop { body, .. } => body.collect_callees(out),
            Stmt::IfElse {
                then_branch,
                else_branch,
            } => {
                then_branch.collect_callees(out);
                else_branch.collect_callees(out);
            }
        }
    }
}

/// A named function with a structured body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    name: String,
    body: Stmt,
}

impl Function {
    /// Creates a function.
    pub fn new(name: impl Into<String>, body: Stmt) -> Self {
        Self {
            name: name.into(),
            body,
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The function body.
    pub fn body(&self) -> &Stmt {
        &self.body
    }
}

/// A whole structured program: a set of functions with `main` as entry.
///
/// # Example
///
/// ```
/// use pwcet_progen::{stmt, Program};
///
/// let p = Program::new("tiny").with_function("main", stmt::compute(3));
/// assert!(p.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    name: String,
    functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            functions: Vec::new(),
        }
    }

    /// Adds a function (builder style). `main` is the entry point and is
    /// emitted first, at the image base.
    #[must_use]
    pub fn with_function(mut self, name: impl Into<String>, body: Stmt) -> Self {
        self.functions.push(Function::new(name, body));
        self
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The functions in declaration order.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Checks the static rules the code generator relies on.
    ///
    /// # Errors
    ///
    /// * [`ProgenError::MissingMain`] — no `main` function.
    /// * [`ProgenError::DuplicateFunction`] — a name is defined twice.
    /// * [`ProgenError::UndefinedFunction`] — a `call` has no target.
    /// * [`ProgenError::RecursiveCall`] — the call graph has a cycle.
    /// * [`ProgenError::ZeroLoopBound`] / [`ProgenError::LoopBoundTooLarge`]
    ///   — a loop bound is 0 or above `i16::MAX`.
    /// * [`ProgenError::LoopTooDeep`] — more than
    ///   [`MAX_LOOP_DEPTH`](crate::MAX_LOOP_DEPTH) nested loops.
    pub fn validate(&self) -> Result<(), ProgenError> {
        let mut names = HashSet::new();
        for f in &self.functions {
            if !names.insert(f.name()) {
                return Err(ProgenError::DuplicateFunction(f.name().to_string()));
            }
        }
        if !names.contains("main") {
            return Err(ProgenError::MissingMain);
        }
        for f in &self.functions {
            check_stmt(f.body())?;
            for callee in f.body().callees() {
                if !names.contains(callee) {
                    return Err(ProgenError::UndefinedFunction(callee.to_string()));
                }
            }
        }
        self.check_acyclic()?;
        Ok(())
    }

    /// Compiles the program to machine code at `base`.
    ///
    /// # Errors
    ///
    /// All [`validate`](Self::validate) errors, plus
    /// [`ProgenError::Assembler`] if the emitted code fails to assemble
    /// (e.g. a function body too large for branch displacement).
    pub fn compile(&self, base: u32) -> Result<CompiledProgram, ProgenError> {
        self.validate()?;
        codegen::compile(self, base)
    }

    fn check_acyclic(&self) -> Result<(), ProgenError> {
        // Three-color depth-first search over the call graph.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let graph: HashMap<&str, Vec<&str>> = self
            .functions
            .iter()
            .map(|f| (f.name(), f.body().callees()))
            .collect();
        let mut color: HashMap<&str, Color> = graph.keys().map(|&k| (k, Color::White)).collect();

        fn visit<'a>(
            node: &'a str,
            graph: &HashMap<&'a str, Vec<&'a str>>,
            color: &mut HashMap<&'a str, Color>,
        ) -> Result<(), ProgenError> {
            color.insert(node, Color::Gray);
            for &next in graph.get(node).into_iter().flatten() {
                match color.get(next) {
                    Some(Color::Gray) => return Err(ProgenError::RecursiveCall(next.to_string())),
                    Some(Color::White) => visit(next, graph, color)?,
                    _ => {}
                }
            }
            color.insert(node, Color::Black);
            Ok(())
        }

        for f in &self.functions {
            if color[f.name()] == Color::White {
                visit(f.name(), &graph, &mut color)?;
            }
        }
        Ok(())
    }
}

fn check_stmt(s: &Stmt) -> Result<(), ProgenError> {
    if s.loop_depth() > codegen::MAX_LOOP_DEPTH {
        return Err(ProgenError::LoopTooDeep(s.loop_depth()));
    }
    check_bounds(s)
}

fn check_bounds(s: &Stmt) -> Result<(), ProgenError> {
    match s {
        Stmt::Compute(_) | Stmt::Call(_) => Ok(()),
        Stmt::Seq(items) => items.iter().try_for_each(check_bounds),
        Stmt::Loop { bound, body } => {
            if *bound == 0 {
                return Err(ProgenError::ZeroLoopBound);
            }
            if *bound > i16::MAX as u32 {
                return Err(ProgenError::LoopBoundTooLarge(*bound));
            }
            check_bounds(body)
        }
        Stmt::IfElse {
            then_branch,
            else_branch,
        } => {
            check_bounds(then_branch)?;
            check_bounds(else_branch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::stmt::*;
    use super::*;

    #[test]
    fn validate_accepts_well_formed_program() {
        let p = Program::new("ok")
            .with_function("main", seq([compute(2), call("f"), call("g")]))
            .with_function("f", loop_(10, compute(1)))
            .with_function("g", if_else(compute(1), call("f")));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_missing_main() {
        let p = Program::new("nomain").with_function("f", compute(1));
        assert_eq!(p.validate(), Err(ProgenError::MissingMain));
    }

    #[test]
    fn validate_rejects_duplicates() {
        let p = Program::new("dup")
            .with_function("main", compute(1))
            .with_function("main", compute(2));
        assert_eq!(
            p.validate(),
            Err(ProgenError::DuplicateFunction("main".into()))
        );
    }

    #[test]
    fn validate_rejects_undefined_callee() {
        let p = Program::new("undef").with_function("main", call("ghost"));
        assert_eq!(
            p.validate(),
            Err(ProgenError::UndefinedFunction("ghost".into()))
        );
    }

    #[test]
    fn validate_rejects_recursion() {
        let p = Program::new("rec")
            .with_function("main", call("a"))
            .with_function("a", call("b"))
            .with_function("b", call("a"));
        assert!(matches!(p.validate(), Err(ProgenError::RecursiveCall(_))));
    }

    #[test]
    fn validate_rejects_self_recursion() {
        let p = Program::new("self")
            .with_function("main", call("a"))
            .with_function("a", call("a"));
        assert_eq!(p.validate(), Err(ProgenError::RecursiveCall("a".into())));
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let p = Program::new("zero").with_function("main", loop_(0, compute(1)));
        assert_eq!(p.validate(), Err(ProgenError::ZeroLoopBound));
        let p = Program::new("huge").with_function("main", loop_(40_000, compute(1)));
        assert_eq!(p.validate(), Err(ProgenError::LoopBoundTooLarge(40_000)));
    }

    #[test]
    fn validate_rejects_deep_nesting() {
        let mut body = compute(1);
        for _ in 0..9 {
            body = loop_(2, body);
        }
        let p = Program::new("deep").with_function("main", body);
        assert_eq!(p.validate(), Err(ProgenError::LoopTooDeep(9)));
    }

    #[test]
    fn loop_depth_and_callees() {
        let s = seq([
            loop_(3, loop_(4, compute(1))),
            if_else(call("x"), seq([call("y"), call("x")])),
        ]);
        assert_eq!(s.loop_depth(), 2);
        assert_eq!(s.callees(), vec!["x", "y", "x"]);
    }
}
