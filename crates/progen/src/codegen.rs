//! MIPS code generation for structured programs.
//!
//! See [`crate::codegen_doc`] for the register discipline. The generator
//! produces, per program: the binary image, per-function extents, loop-bound
//! annotations keyed by loop header address, and per-function structure
//! trees.

use std::collections::HashMap;
use std::mem;
use std::sync::OnceLock;

use pwcet_mips::{Assembler, BinaryImage, Instruction, Reg};

use crate::ast::{Program, Stmt};
use crate::error::ProgenError;
use crate::tree::StructureNode;

/// Maximum supported loop nesting depth per function (one `$sN` counter
/// register per level).
pub const MAX_LOOP_DEPTH: usize = 8;

/// Counter registers by nesting depth.
const LOOP_REGS: [Reg; MAX_LOOP_DEPTH] = [
    Reg::S0,
    Reg::S1,
    Reg::S2,
    Reg::S3,
    Reg::S4,
    Reg::S5,
    Reg::S6,
    Reg::S7,
];

/// A loop-bound annotation: the analysis-facing contract that the basic
/// block starting at `header` executes at most `bound` times per loop
/// entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// Address of the loop header (back-edge target).
    pub header: u32,
    /// Maximum body executions per entry of the loop.
    pub bound: u32,
}

/// Extent of one compiled function in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfo {
    name: String,
    entry: u32,
    end: u32,
}

impl FunctionInfo {
    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Address of the first instruction.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// One past the address of the last instruction.
    pub fn end(&self) -> u32 {
        self.end
    }

    /// `true` if `addr` belongs to this function.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.entry && addr < self.end
    }
}

/// The compiled artifact: machine code plus the metadata consumed by the
/// analyses.
///
/// # Example
///
/// ```
/// use pwcet_progen::{stmt, Program};
///
/// # fn main() -> Result<(), pwcet_progen::ProgenError> {
/// let compiled = Program::new("p")
///     .with_function("main", stmt::loop_(5, stmt::compute(2)))
///     .compile(0x0040_0000)?;
/// let main = compiled.function("main").expect("main exists");
/// assert_eq!(main.entry(), 0x0040_0000);
/// assert!(compiled.tree("main").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    name: String,
    image: BinaryImage,
    functions: Vec<FunctionInfo>,
    loop_bounds: Vec<LoopBound>,
    trees: HashMap<String, StructureNode>,
    /// [`content_digest`](Self::content_digest), computed on first use.
    digest: OnceLock<u64>,
}

impl CompiledProgram {
    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The machine code image.
    pub fn image(&self) -> &BinaryImage {
        &self.image
    }

    /// The program entry point (`main`'s first instruction).
    pub fn entry(&self) -> u32 {
        self.image.base()
    }

    /// Function extents, `main` first.
    pub fn functions(&self) -> &[FunctionInfo] {
        &self.functions
    }

    /// Looks up a function extent by name.
    pub fn function(&self, name: &str) -> Option<&FunctionInfo> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The function containing `addr`, if any.
    pub fn function_at(&self, addr: u32) -> Option<&FunctionInfo> {
        self.functions.iter().find(|f| f.contains(addr))
    }

    /// All loop-bound annotations.
    pub fn loop_bounds(&self) -> &[LoopBound] {
        &self.loop_bounds
    }

    /// The bound of the loop with the given header address.
    pub fn loop_bound_at(&self, header: u32) -> Option<u32> {
        self.loop_bounds
            .iter()
            .find(|lb| lb.header == header)
            .map(|lb| lb.bound)
    }

    /// The structure tree of a function.
    pub fn tree(&self, name: &str) -> Option<&StructureNode> {
        self.trees.get(name)
    }

    /// All structure trees, keyed by function name.
    pub fn trees(&self) -> &HashMap<String, StructureNode> {
        &self.trees
    }

    /// A 64-bit FNV-1a digest of everything the CFG expander reads: the
    /// image base and words, each function's name (length-prefixed),
    /// entry and end, and each loop bound's header and bound, every
    /// integer as little-endian `u32` bytes. Computed once per compiled
    /// program and kept, so content keys that continue this hash with
    /// their own fields (`ContextCache::key_of` in `pwcet-core`) read the
    /// image once, however often they are asked for.
    pub fn content_digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut hash = Fnv1a::default();
            hash.write_u32(self.image.base());
            for &word in self.image.words() {
                hash.write_u32(word);
            }
            for function in &self.functions {
                hash.write_u32(function.name.len() as u32);
                hash.write(function.name.as_bytes());
                hash.write_u32(function.entry);
                hash.write_u32(function.end);
            }
            for bound in &self.loop_bounds {
                hash.write_u32(bound.header);
                hash.write_u32(bound.bound);
            }
            hash.0
        })
    }

    /// Upper bound on instruction fetches of a whole program run (tree
    /// evaluation with unit fetch cost; used as a cheap sanity oracle).
    pub fn max_fetches(&self) -> u64 {
        self.trees
            .get("main")
            .map_or(0, |t| t.max_fetches(&self.trees))
    }
}

/// Compiles a validated program. Called by [`Program::compile`].
pub(crate) fn compile(program: &Program, base: u32) -> Result<CompiledProgram, ProgenError> {
    let mut asm = Assembler::new(base);
    let mut bounds = Vec::new();
    let mut trees = HashMap::new();
    let mut functions = Vec::new();
    let mut label_counter = 0u32;

    // `main` first (entry at image base), then remaining functions in
    // declaration order.
    let mut order: Vec<&str> = vec!["main"];
    order.extend(
        program
            .functions()
            .iter()
            .map(|f| f.name())
            .filter(|&n| n != "main"),
    );

    for name in order {
        let function = program.function(name).expect("validated: function exists");
        let entry = asm.here();
        asm.label(fn_label(name));
        let is_main = name == "main";

        let mut emitter = FnEmitter {
            asm: &mut asm,
            bounds: &mut bounds,
            label_counter: &mut label_counter,
            nodes: Vec::new(),
            run: Vec::new(),
        };

        let saved_regs = function.body().loop_depth();
        if is_main {
            // Stack + direction-toggle initialization.
            emitter.instr(Instruction::Lui {
                rt: Reg::SP,
                imm: 0x7fff,
            });
            emitter.instr(Instruction::Ori {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: 0xf000,
            });
            emitter.instr(Instruction::Addiu {
                rt: Reg::T9,
                rs: Reg::ZERO,
                imm: 0,
            });
        } else {
            let frame = 4 * (1 + saved_regs as i16);
            emitter.instr(Instruction::Addiu {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: -frame,
            });
            emitter.instr(Instruction::Sw {
                rt: Reg::RA,
                base: Reg::SP,
                offset: 0,
            });
            for (i, &reg) in LOOP_REGS[..saved_regs].iter().enumerate() {
                emitter.instr(Instruction::Sw {
                    rt: reg,
                    base: Reg::SP,
                    offset: 4 * (i as i16 + 1),
                });
            }
        }

        emitter.emit(function.body(), 0);

        if is_main {
            emitter.instr(Instruction::Break { code: 0 });
        } else {
            emitter.instr(Instruction::Lw {
                rt: Reg::RA,
                base: Reg::SP,
                offset: 0,
            });
            for (i, &reg) in LOOP_REGS[..saved_regs].iter().enumerate() {
                emitter.instr(Instruction::Lw {
                    rt: reg,
                    base: Reg::SP,
                    offset: 4 * (i as i16 + 1),
                });
            }
            let frame = 4 * (1 + saved_regs as i16);
            emitter.instr(Instruction::Addiu {
                rt: Reg::SP,
                rs: Reg::SP,
                imm: frame,
            });
            emitter.instr(Instruction::Jr { rs: Reg::RA });
        }
        emitter.flush();
        let nodes = mem::take(&mut emitter.nodes);
        trees.insert(name.to_string(), StructureNode::Seq(nodes));

        functions.push(FunctionInfo {
            name: name.to_string(),
            entry,
            end: asm.here(),
        });
    }

    let image = asm.assemble()?;
    Ok(CompiledProgram {
        name: program.name().to_string(),
        image,
        functions,
        loop_bounds: bounds,
        trees,
        digest: OnceLock::new(),
    })
}

/// 64-bit FNV-1a, the hash behind [`CompiledProgram::content_digest`].
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }
}

fn fn_label(name: &str) -> String {
    format!("fn_{name}")
}

struct FnEmitter<'a> {
    asm: &'a mut Assembler,
    bounds: &'a mut Vec<LoopBound>,
    label_counter: &'a mut u32,
    nodes: Vec<StructureNode>,
    run: Vec<u32>,
}

impl FnEmitter<'_> {
    fn fresh(&mut self, kind: &str) -> String {
        *self.label_counter += 1;
        format!(".{kind}_{}", self.label_counter)
    }

    /// Emits a resolved instruction, recording its address in the current
    /// straight-line run.
    fn instr(&mut self, inst: Instruction) {
        self.run.push(self.asm.here());
        self.asm.push(inst);
    }

    /// Ends the current straight-line run, if any.
    fn flush(&mut self) {
        if !self.run.is_empty() {
            self.nodes
                .push(StructureNode::Straight(mem::take(&mut self.run)));
        }
    }

    fn emit(&mut self, stmt: &Stmt, depth: usize) {
        match stmt {
            Stmt::Compute(count) => {
                for k in 0..*count {
                    self.instr(compute_instruction(k));
                }
            }
            Stmt::Seq(items) => {
                for item in items {
                    self.emit(item, depth);
                }
            }
            Stmt::Loop { bound, body } => {
                let reg = LOOP_REGS[depth];
                // Counter init belongs to the code *before* the loop.
                self.instr(Instruction::Addiu {
                    rt: reg,
                    rs: Reg::ZERO,
                    imm: *bound as i16,
                });
                self.flush();

                let label = self.fresh("loop");
                let header = self.asm.here();
                self.asm.label(label.clone());
                self.bounds.push(LoopBound {
                    header,
                    bound: *bound,
                });

                let saved = mem::take(&mut self.nodes);
                self.emit(body, depth + 1);
                self.instr(Instruction::Addiu {
                    rt: reg,
                    rs: reg,
                    imm: -1,
                });
                self.run.push(self.asm.here());
                self.asm.bne(reg, Reg::ZERO, label);
                self.flush();
                let body_nodes = mem::replace(&mut self.nodes, saved);
                self.nodes.push(StructureNode::Loop {
                    header,
                    bound: *bound,
                    body: Box::new(StructureNode::Seq(body_nodes)),
                });
            }
            Stmt::IfElse {
                then_branch,
                else_branch,
            } => {
                // Toggle the direction register and branch on it; both the
                // toggle and the branch belong to the preceding straight
                // run (they execute unconditionally).
                self.instr(Instruction::Xori {
                    rt: Reg::T9,
                    rs: Reg::T9,
                    imm: 1,
                });
                let else_label = self.fresh("else");
                let end_label = self.fresh("endif");
                self.run.push(self.asm.here());
                self.asm.beq(Reg::T9, Reg::ZERO, else_label.clone());
                self.flush();

                let saved = mem::take(&mut self.nodes);
                self.emit(then_branch, depth);
                self.run.push(self.asm.here());
                self.asm.j(end_label.clone());
                self.flush();
                let then_nodes = mem::take(&mut self.nodes);

                self.asm.label(else_label);
                self.emit(else_branch, depth);
                self.flush();
                let else_nodes = mem::replace(&mut self.nodes, saved);
                self.asm.label(end_label);

                self.nodes.push(StructureNode::IfElse {
                    then_branch: Box::new(StructureNode::Seq(then_nodes)),
                    else_branch: Box::new(StructureNode::Seq(else_nodes)),
                });
            }
            Stmt::Call(name) => {
                self.flush();
                let site = self.asm.here();
                self.asm.jal(fn_label(name));
                self.nodes.push(StructureNode::Call {
                    site,
                    callee: name.clone(),
                });
            }
        }
    }
}

/// The `k`-th straight-line filler instruction: a deterministic mix of ALU
/// operations over `$t0..$t3` with no memory traffic and no control flow.
fn compute_instruction(k: u32) -> Instruction {
    match k % 4 {
        0 => Instruction::Addu {
            rd: Reg::T0,
            rs: Reg::T0,
            rt: Reg::T1,
        },
        1 => Instruction::Xor {
            rd: Reg::T1,
            rs: Reg::T1,
            rt: Reg::T2,
        },
        2 => Instruction::Addiu {
            rt: Reg::T2,
            rs: Reg::T2,
            imm: 1,
        },
        _ => Instruction::Sll {
            rd: Reg::T3,
            rt: Reg::T2,
            shamt: 1,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::stmt::*;

    const BASE: u32 = 0x0040_0000;

    fn compile(p: &Program) -> CompiledProgram {
        p.compile(BASE).expect("program compiles")
    }

    #[test]
    fn straight_line_program_layout() {
        let c = compile(&Program::new("s").with_function("main", compute(5)));
        // 3 prologue + 5 compute + 1 break.
        assert_eq!(c.image().len_words(), 9);
        assert_eq!(c.entry(), BASE);
        let main = c.function("main").unwrap();
        assert_eq!(main.entry(), BASE);
        assert_eq!(main.end(), BASE + 9 * 4);
        assert!(c.loop_bounds().is_empty());
    }

    #[test]
    fn loop_emits_bound_annotation_at_header() {
        let c = compile(&Program::new("l").with_function("main", loop_(7, compute(2))));
        assert_eq!(c.loop_bounds().len(), 1);
        let lb = c.loop_bounds()[0];
        assert_eq!(lb.bound, 7);
        // Header = prologue (3) + init (1) instructions after base.
        assert_eq!(lb.header, BASE + 4 * 4);
        assert_eq!(c.loop_bound_at(lb.header), Some(7));
        // The back branch targets the header.
        let image = c.image();
        let bne_addr = lb.header + 3 * 4; // 2 compute + 1 decrement
        let bne = image.decode_at(bne_addr).unwrap();
        assert_eq!(bne.static_target(bne_addr), Some(lb.header));
    }

    #[test]
    fn nested_loops_use_distinct_counters() {
        let c = compile(&Program::new("n").with_function("main", loop_(3, loop_(4, compute(1)))));
        assert_eq!(c.loop_bounds().len(), 2);
        let listing = c.image().disassemble();
        assert!(listing.contains("addiu $s0, $zero, 3"));
        assert!(listing.contains("addiu $s1, $zero, 4"));
    }

    #[test]
    fn call_saves_and_restores() {
        let p = Program::new("c")
            .with_function("main", call("leaf"))
            .with_function("leaf", loop_(2, compute(1)));
        let c = compile(&p);
        let listing = c.image().disassemble();
        assert!(listing.contains("jal"));
        assert!(listing.contains("sw $ra, 0($sp)"));
        assert!(listing.contains("sw $s0, 4($sp)"));
        assert!(listing.contains("jr $ra"));
        let leaf = c.function("leaf").unwrap();
        // jal targets the leaf entry.
        let main_tree = c.tree("main").unwrap();
        let sites: Vec<u32> = main_tree
            .own_addresses()
            .into_iter()
            .filter(|&a| {
                matches!(
                    c.image().decode_at(a),
                    Ok(pwcet_mips::Instruction::Jal { .. })
                )
            })
            .collect();
        assert_eq!(sites.len(), 1);
        let jal = c.image().decode_at(sites[0]).unwrap();
        assert_eq!(jal.static_target(sites[0]), Some(leaf.entry()));
    }

    #[test]
    fn if_else_branch_targets() {
        let c = compile(&Program::new("b").with_function("main", if_else(compute(2), compute(3))));
        let listing = c.image().disassemble();
        assert!(listing.contains("xori $t9, $t9, 0x1"));
        assert!(listing.contains("beq $t9, $zero"));
        // then: 2 compute + 1 j; else: 3 compute.
        // prologue(3) + xori + beq + 2 + j + 3 + break = 12.
        assert_eq!(c.image().len_words(), 12);
    }

    #[test]
    fn tree_covers_every_instruction_exactly_once() {
        let p = Program::new("cover")
            .with_function(
                "main",
                seq([
                    compute(2),
                    loop_(3, if_else(compute(1), seq([compute(2), call("f")]))),
                    compute(1),
                ]),
            )
            .with_function("f", compute(4));
        let c = compile(&p);
        let mut covered: Vec<u32> = Vec::new();
        for f in c.functions() {
            let tree = c.tree(f.name()).unwrap();
            covered.extend(tree.own_addresses());
        }
        covered.sort_unstable();
        let expected: Vec<u32> = (0..c.image().len_words() as u32)
            .map(|i| BASE + i * 4)
            .collect();
        assert_eq!(
            covered, expected,
            "each instruction in exactly one tree leaf"
        );
    }

    #[test]
    fn max_fetches_counts_loop_iterations() {
        let c = compile(&Program::new("m").with_function("main", loop_(10, compute(2))));
        // prologue 3 + init 1 + 10*(2 compute + decrement + bne) + break 1.
        assert_eq!(c.max_fetches(), 3 + 1 + 10 * 4 + 1);
    }

    #[test]
    fn function_extents_partition_image() {
        let p = Program::new("parts")
            .with_function("main", seq([call("a"), call("b")]))
            .with_function("a", compute(3))
            .with_function("b", compute(5));
        let c = compile(&p);
        let mut cursor = BASE;
        for f in c.functions() {
            assert_eq!(f.entry(), cursor, "functions are contiguous");
            cursor = f.end();
        }
        assert_eq!(cursor, c.image().end());
        assert_eq!(c.function_at(BASE).unwrap().name(), "main");
    }
}
