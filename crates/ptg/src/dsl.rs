//! A JDF-like textual DSL for Parameterized Task Graphs.
//!
//! This is the executable counterpart of the paper's Figure 1 (GEMMs in a
//! serial chain) and Figure 2 (the one-line change that makes them
//! parallel). A program is a sequence of task-class blocks:
//!
//! ```text
//! GEMM(L1, L2)                      // header: class name + parameters
//! L1 = 0 .. size_L1 - 1             // one range per parameter
//! L2 = 0 .. chain_len(L1) - 1       // bounds may call host functions
//!
//! : rr(L1)                          // placement expression (optional)
//!
//! READ A <- input_a(L1, L2)               // memory input (host data)
//! READ B <- B READ_B(L1, L2)              // task input: flow B of READ_B
//! RW C <- (L2 == 0) ? C DFILL(L1)         // guarded input alternatives
//!      <- (L2 != 0) ? C GEMM(L1, L2 - 1)
//!      -> (L2 < chain_len(L1) - 1) ? C GEMM(L1, L2 + 1)
//!      -> (L2 == chain_len(L1) - 1) ? C SORT(L1)
//!
//! ; size_L1 - L1 + 1                // priority expression (optional)
//!
//! BODY gemm_kernel                  // registered body name (ends class)
//! ```
//!
//! Semantics, matching the JDF rules the paper relies on:
//!
//! * every *output* clause whose guard holds fires (broadcast);
//! * among the *input* clauses of one flow, the first whose guard holds is
//!   the active one (guards are expected to be mutually exclusive);
//! * a task is ready when all of its active task-inputs have arrived;
//! * `P` is predefined as the number of nodes (the paper's priority
//!   expressions use `offset * P`).
//!
//! Host integration happens on the [`DslBuilder`]: global variables and
//! functions (`size_L1`, `chain_len`, `find_last_segment_owner`, ...),
//! task bodies, data providers for memory inputs, and optional cost hooks
//! for the simulated engine.

use crate::expr::{self, Expr, HostFn, Layered, MapEnv};
use crate::{Activity, Dep, GraphCtx, Payload, TaskClass, TaskCost, TaskGraph, TaskKey};
use std::collections::HashMap;
use std::sync::Arc;

/// Parse/compile error with 1-based source line.
#[derive(Debug, Clone)]
pub struct DslError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

fn derr<T>(line: usize, msg: impl Into<String>) -> Result<T, DslError> {
    Err(DslError {
        line,
        msg: msg.into(),
    })
}

// ------------------------------------------------------------------- AST --

/// Where a dependency clause points.
#[derive(Debug, Clone)]
enum DepTarget {
    /// `FLOW CLASS(args)`: another task instance.
    Task {
        remote_flow: String,
        class: String,
        args: Vec<Expr>,
    },
    /// `name(args)`: host-provided data (memory reference).
    Memory { name: String, args: Vec<Expr> },
}

/// One `<-` or `->` clause.
#[derive(Debug, Clone)]
struct DepClause {
    guard: Option<Expr>,
    target: DepTarget,
}

/// Flow directionality keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowMode {
    Read,
    Write,
    Rw,
}

#[derive(Debug, Clone)]
struct FlowDef {
    name: String,
    mode: FlowMode,
    ins: Vec<DepClause>,
    outs: Vec<DepClause>,
}

#[derive(Debug, Clone)]
struct ClassDef {
    name: String,
    params: Vec<String>,
    ranges: Vec<(Expr, Expr)>,
    placement: Option<Expr>,
    flows: Vec<FlowDef>,
    priority: Option<Expr>,
    body: String,
}

// ---------------------------------------------------------------- parser --

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Split `src` at the top-level occurrence of `..` (not inside parens).
fn split_range(src: &str) -> Option<(&str, &str)> {
    let b = src.as_bytes();
    let mut depth = 0;
    let mut i = 0;
    while i + 1 < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'.' if depth == 0 && b[i + 1] == b'.' => {
                return Some((&src[..i], &src[i + 2..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse one dep clause body: `[(guard) ?] FLOW CLASS(args)` or
/// `[(guard) ?] name(args)`.
fn parse_clause(src: &str, line: usize) -> Result<DepClause, DslError> {
    let src = src.trim();
    let (guard, rest) = if src.starts_with('(') {
        // Find the matching close paren.
        let b = src.as_bytes();
        let mut depth = 0;
        let mut close = None;
        for (i, &c) in b.iter().enumerate() {
            if c == b'(' {
                depth += 1;
            } else if c == b')' {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
        }
        let close = close.ok_or(DslError {
            line,
            msg: "unbalanced parentheses".into(),
        })?;
        let after = src[close + 1..].trim_start();
        if let Some(stripped) = after.strip_prefix('?') {
            let g = expr::parse(&src[1..close]).map_err(|e| DslError {
                line,
                msg: format!("bad guard: {e}"),
            })?;
            (Some(g), stripped.trim_start())
        } else {
            (None, src)
        }
    } else {
        (None, src)
    };

    // rest is `IDENT IDENT(args)` (task) or `IDENT(args)` (memory).
    let ident_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if ident_end == 0 {
        return derr(
            line,
            format!("expected identifier in dependency clause `{rest}`"),
        );
    }
    let first = &rest[..ident_end];
    let after = rest[ident_end..].trim_start();
    if let Some(args_src) = after.strip_prefix('(') {
        // Memory reference: first(args).
        let args_src = args_src.strip_suffix(')').ok_or(DslError {
            line,
            msg: "missing `)` in clause".into(),
        })?;
        let args = parse_args(args_src, line)?;
        return Ok(DepClause {
            guard,
            target: DepTarget::Memory {
                name: first.to_string(),
                args,
            },
        });
    }
    // Task reference: FLOW CLASS(args).
    let ident2_end = after
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    if ident2_end == 0 {
        return derr(
            line,
            format!("expected `FLOW CLASS(args)` or `data(args)` in `{rest}`"),
        );
    }
    let class = &after[..ident2_end];
    let tail = after[ident2_end..].trim_start();
    let args_src = tail
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or(DslError {
            line,
            msg: format!("expected `(args)` after task name `{class}`"),
        })?;
    let args = parse_args(args_src, line)?;
    Ok(DepClause {
        guard,
        target: DepTarget::Task {
            remote_flow: first.to_string(),
            class: class.to_string(),
            args,
        },
    })
}

/// Parse a comma-separated argument list (top-level commas only).
fn parse_args(src: &str, line: usize) -> Result<Vec<Expr>, DslError> {
    let src = src.trim();
    if src.is_empty() {
        return Ok(Vec::new());
    }
    let mut args = Vec::new();
    let mut depth = 0;
    let mut start = 0;
    let b = src.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b',' if depth == 0 => {
                args.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    args.push(&src[start..]);
    args.into_iter()
        .map(|a| {
            expr::parse(a).map_err(|e| DslError {
                line,
                msg: format!("bad argument: {e}"),
            })
        })
        .collect()
}

/// Parse a whole program into class definitions.
fn parse_program(src: &str) -> Result<Vec<ClassDef>, DslError> {
    let mut classes: Vec<ClassDef> = Vec::new();
    let mut cur: Option<ClassDef> = None;

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        match &mut cur {
            None => {
                // Expect a class header: NAME(p1, p2).
                let open = text.find('(').ok_or(DslError {
                    line,
                    msg: format!("expected class header, got `{text}`"),
                })?;
                let name = text[..open].trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return derr(line, format!("bad class name `{name}`"));
                }
                let close = text.rfind(')').ok_or(DslError {
                    line,
                    msg: "missing `)` in class header".into(),
                })?;
                let params: Vec<String> = text[open + 1..close]
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                if params.len() > crate::MAX_PARAMS {
                    return derr(line, "too many parameters (max 4)");
                }
                cur = Some(ClassDef {
                    name: name.to_string(),
                    params,
                    ranges: Vec::new(),
                    placement: None,
                    flows: Vec::new(),
                    priority: None,
                    body: String::new(),
                });
            }
            Some(def) => {
                if let Some(rest) = text.strip_prefix("BODY") {
                    def.body = rest.trim().to_string();
                    if def.body.is_empty() {
                        return derr(line, "BODY needs a name");
                    }
                    if def.ranges.len() != def.params.len() {
                        return derr(
                            line,
                            format!(
                                "class {} has {} params but {} ranges",
                                def.name,
                                def.params.len(),
                                def.ranges.len()
                            ),
                        );
                    }
                    classes.push(cur.take().unwrap());
                } else if let Some(rest) = text.strip_prefix(':') {
                    let e = expr::parse(rest).map_err(|e| DslError {
                        line,
                        msg: format!("bad placement: {e}"),
                    })?;
                    def.placement = Some(e);
                } else if let Some(rest) = text.strip_prefix(';') {
                    let e = expr::parse(rest).map_err(|e| DslError {
                        line,
                        msg: format!("bad priority: {e}"),
                    })?;
                    def.priority = Some(e);
                } else if text.starts_with("<-") || text.starts_with("->") {
                    // Continuation of the last flow.
                    let flow = def.flows.last_mut().ok_or(DslError {
                        line,
                        msg: "dependency before any flow".into(),
                    })?;
                    parse_flow_deps(text, flow, line)?;
                } else if let Some(rest) = keyword(text, "READ") {
                    def.flows.push(new_flow(rest, FlowMode::Read, line)?);
                } else if let Some(rest) = keyword(text, "WRITE") {
                    def.flows.push(new_flow(rest, FlowMode::Write, line)?);
                } else if let Some(rest) = keyword(text, "RW") {
                    def.flows.push(new_flow(rest, FlowMode::Rw, line)?);
                } else if def.ranges.len() < def.params.len()
                    && text.starts_with(&def.params[def.ranges.len()])
                {
                    // Range line: PARAM = lo .. hi.
                    let eq = text.find('=').ok_or(DslError {
                        line,
                        msg: "expected `=` in range".into(),
                    })?;
                    let lhs = text[..eq].trim();
                    if lhs != def.params[def.ranges.len()] {
                        return derr(
                            line,
                            format!(
                                "ranges must be declared in parameter order (expected `{}`)",
                                def.params[def.ranges.len()]
                            ),
                        );
                    }
                    let (lo, hi) = split_range(&text[eq + 1..]).ok_or(DslError {
                        line,
                        msg: "expected `lo .. hi`".into(),
                    })?;
                    let lo = expr::parse(lo).map_err(|e| DslError {
                        line,
                        msg: format!("bad range: {e}"),
                    })?;
                    let hi = expr::parse(hi).map_err(|e| DslError {
                        line,
                        msg: format!("bad range: {e}"),
                    })?;
                    def.ranges.push((lo, hi));
                } else {
                    return derr(line, format!("unrecognized line `{text}`"));
                }
            }
        }
    }
    if let Some(def) = cur {
        return derr(0, format!("class {} has no BODY line", def.name));
    }
    Ok(classes)
}

fn keyword<'a>(text: &'a str, kw: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(kw)?;
    if rest.starts_with(|c: char| c.is_whitespace()) {
        Some(rest.trim_start())
    } else {
        None
    }
}

fn new_flow(rest: &str, mode: FlowMode, line: usize) -> Result<FlowDef, DslError> {
    // rest = `NAME <- ... -> ...`
    let name_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if name_end == 0 {
        return derr(line, "flow needs a name");
    }
    let mut flow = FlowDef {
        name: rest[..name_end].to_string(),
        mode,
        ins: Vec::new(),
        outs: Vec::new(),
    };
    let deps = rest[name_end..].trim();
    if !deps.is_empty() {
        parse_flow_deps(deps, &mut flow, line)?;
    }
    Ok(flow)
}

/// Parse `<- clause`, `-> clause` sequences (one or more on a line).
fn parse_flow_deps(src: &str, flow: &mut FlowDef, line: usize) -> Result<(), DslError> {
    // Split on top-level `<-` / `->` markers.
    let b = src.as_bytes();
    let mut marks: Vec<(usize, bool)> = Vec::new(); // (pos, is_input)
    let mut depth = 0;
    let mut i = 0;
    while i + 1 < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'<' if depth == 0 && b[i + 1] == b'-' => marks.push((i, true)),
            b'-' if depth == 0 && b[i + 1] == b'>' => marks.push((i, false)),
            _ => {}
        }
        i += 1;
    }
    if marks.is_empty() || marks[0].0 != 0 {
        return derr(line, format!("expected `<-` or `->` in `{src}`"));
    }
    for (j, &(pos, is_input)) in marks.iter().enumerate() {
        let end = marks.get(j + 1).map(|&(p, _)| p).unwrap_or(src.len());
        let clause = parse_clause(&src[pos + 2..end], line)?;
        if is_input {
            // WRITE flows own fresh data; they may be seeded from memory
            // (a data reference) but not from another task.
            if flow.mode == FlowMode::Write && matches!(clause.target, DepTarget::Task { .. }) {
                return derr(
                    line,
                    format!("WRITE flow {} cannot have task inputs", flow.name),
                );
            }
            flow.ins.push(clause);
        } else {
            if flow.mode == FlowMode::Read {
                return derr(line, format!("READ flow {} cannot have outputs", flow.name));
            }
            flow.outs.push(clause);
        }
    }
    Ok(())
}

/// Constant-fold all expressions of a parsed class.
fn fold_class(mut c: ClassDef) -> ClassDef {
    let fold_clause = |cl: &mut DepClause| {
        if let Some(g) = &cl.guard {
            cl.guard = Some(expr::fold(g));
        }
        match &mut cl.target {
            DepTarget::Task { args, .. } | DepTarget::Memory { args, .. } => {
                for a in args.iter_mut() {
                    *a = expr::fold(a);
                }
            }
        }
    };
    for (lo, hi) in &mut c.ranges {
        *lo = expr::fold(lo);
        *hi = expr::fold(hi);
    }
    if let Some(p) = &c.placement {
        c.placement = Some(expr::fold(p));
    }
    if let Some(p) = &c.priority {
        c.priority = Some(expr::fold(p));
    }
    for f in &mut c.flows {
        for cl in f.ins.iter_mut().chain(f.outs.iter_mut()) {
            fold_clause(cl);
        }
    }
    c
}

// ----------------------------------------------------------- interpreter --

/// Task body: consumes inputs (indexed by flow), returns outputs.
pub type Body = Arc<dyn Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync>;
/// Data provider for memory inputs: `(args) -> payload`.
pub type DataProvider = Arc<dyn Fn(&[i64]) -> Payload + Send + Sync>;
/// Cost hook for the simulated engine.
pub type CostHook = Arc<dyn Fn(TaskKey) -> TaskCost + Send + Sync>;

struct Program {
    classes: Vec<ClassDef>,
    by_name: HashMap<String, usize>,
    globals: MapEnv,
    bodies: HashMap<String, Body>,
    data: HashMap<String, DataProvider>,
    costs: HashMap<String, CostHook>,
    activities: HashMap<String, Activity>,
}

impl Program {
    fn flow_index(&self, class: usize, flow: &str) -> Option<u32> {
        self.classes[class]
            .flows
            .iter()
            .position(|f| f.name == flow)
            .map(|i| i as u32)
    }

    fn bind(&self, class: usize, key: TaskKey, nodes: usize) -> MapEnv {
        let def = &self.classes[class];
        let mut env = MapEnv::new();
        for (i, p) in def.params.iter().enumerate() {
            env.set(p, key.params[i]);
        }
        env.set("P", nodes as i64);
        env
    }
}

/// One interpreted task class, viewable as a [`TaskClass`].
struct InterpClass {
    prog: Arc<Program>,
    idx: usize,
}

impl InterpClass {
    fn def(&self) -> &ClassDef {
        &self.prog.classes[self.idx]
    }

    fn eval(&self, e: &Expr, locals: &MapEnv) -> i64 {
        let env = Layered {
            locals,
            globals: &self.prog.globals,
        };
        expr::eval(e, &env).unwrap_or_else(|err| {
            panic!("evaluating expression for class {}: {err}", self.def().name)
        })
    }

    fn guard_holds(&self, c: &DepClause, locals: &MapEnv) -> bool {
        c.guard
            .as_ref()
            .map(|g| self.eval(g, locals) != 0)
            .unwrap_or(true)
    }

    /// The active input clause of each flow (first satisfied).
    fn active_inputs<'a>(&'a self, locals: &MapEnv) -> Vec<(usize, &'a DepClause)> {
        let mut out = Vec::new();
        for (fi, flow) in self.def().flows.iter().enumerate() {
            if let Some(c) = flow.ins.iter().find(|c| self.guard_holds(c, locals)) {
                out.push((fi, c));
            }
        }
        out
    }

    /// Enumerate the class's (possibly parameter-dependent) domain.
    fn for_each_key(&self, nodes: usize, f: &mut dyn FnMut(TaskKey)) {
        let def = self.def();
        let mut locals = MapEnv::new();
        locals.set("P", nodes as i64);
        let mut stack = vec![0i64; def.params.len()];
        self.enum_rec(0, &mut stack, &mut locals, f);
    }

    fn enum_rec(
        &self,
        depth: usize,
        vals: &mut Vec<i64>,
        locals: &mut MapEnv,
        f: &mut dyn FnMut(TaskKey),
    ) {
        let def = self.def();
        if depth == def.params.len() {
            f(TaskKey::new(self.idx as u32, vals));
            return;
        }
        let (lo_e, hi_e) = &def.ranges[depth];
        let lo = self.eval(lo_e, locals);
        let hi = self.eval(hi_e, locals);
        for v in lo..=hi {
            vals[depth] = v;
            locals.set(&def.params[depth], v);
            self.enum_rec(depth + 1, vals, locals, f);
        }
    }
}

impl TaskClass for InterpClass {
    fn name(&self) -> &str {
        &self.def().name
    }

    fn num_flows(&self) -> usize {
        self.def().flows.len()
    }

    fn roots(&self, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        let nodes = ctx.nodes();
        self.for_each_key(nodes, &mut |key| {
            if self.num_inputs(key, ctx) == 0 {
                out.push(key);
            }
        });
    }

    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        self.active_inputs(&locals)
            .iter()
            .filter(|(_, c)| matches!(c.target, DepTarget::Task { .. }))
            .count()
    }

    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        for (fi, flow) in self.def().flows.iter().enumerate() {
            for c in &flow.outs {
                if !self.guard_holds(c, &locals) {
                    continue;
                }
                match &c.target {
                    DepTarget::Task {
                        remote_flow,
                        class,
                        args,
                    } => {
                        let tgt_idx = *self.prog.by_name.get(class).unwrap_or_else(|| {
                            panic!("unknown class `{class}` in deps of {}", self.name())
                        });
                        let dst_flow =
                            self.prog
                                .flow_index(tgt_idx, remote_flow)
                                .unwrap_or_else(|| {
                                    panic!("class `{class}` has no flow `{remote_flow}`")
                                });
                        let vals: Vec<i64> = args.iter().map(|a| self.eval(a, &locals)).collect();
                        out.push(Dep {
                            src_flow: fi as u32,
                            dst: TaskKey::new(tgt_idx as u32, &vals),
                            dst_flow,
                        });
                    }
                    DepTarget::Memory { .. } => {
                        // Output to memory: a sink; nothing to schedule.
                    }
                }
            }
        }
    }

    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        match &self.def().priority {
            Some(e) => {
                let locals = self.prog.bind(self.idx, key, ctx.nodes());
                self.eval(e, &locals)
            }
            None => 0,
        }
    }

    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        match &self.def().placement {
            Some(e) => {
                let locals = self.prog.bind(self.idx, key, ctx.nodes());
                let v = self.eval(e, &locals);
                (v.rem_euclid(ctx.nodes().max(1) as i64)) as usize
            }
            None => 0,
        }
    }

    fn cost(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> TaskCost {
        match self.prog.costs.get(&self.def().name) {
            Some(h) => h(key),
            None => TaskCost::Fixed { ns: 1_000 },
        }
    }

    fn activity(&self) -> Activity {
        self.prog
            .activities
            .get(&self.def().name)
            .copied()
            .unwrap_or(Activity::Compute)
    }

    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        // Resolve memory inputs through data providers first.
        let locals = self.prog.bind(self.idx, key, ctx.nodes());
        for (fi, c) in self.active_inputs(&locals) {
            if let DepTarget::Memory { name, args } = &c.target {
                if inputs[fi].is_none() {
                    if let Some(p) = self.prog.data.get(name) {
                        let vals: Vec<i64> = args.iter().map(|a| self.eval(a, &locals)).collect();
                        inputs[fi] = Some(p(&vals));
                    }
                }
            }
        }
        match self.prog.bodies.get(&self.def().body) {
            Some(b) => b(key, inputs),
            None => {
                // Default body: forward each flow's input (RW semantics).
                inputs.iter_mut().map(|i| i.take()).collect()
            }
        }
    }
}

// ----------------------------------------------------------------- builder --

/// Compile a DSL program and attach host bindings.
pub struct DslBuilder {
    src: String,
    globals: MapEnv,
    bodies: HashMap<String, Body>,
    data: HashMap<String, DataProvider>,
    costs: HashMap<String, CostHook>,
    activities: HashMap<String, Activity>,
}

impl DslBuilder {
    /// Start from DSL source text.
    pub fn new(src: &str) -> Self {
        Self {
            src: src.to_string(),
            globals: MapEnv::new(),
            bodies: HashMap::new(),
            data: HashMap::new(),
            costs: HashMap::new(),
            activities: HashMap::new(),
        }
    }

    /// Bind a global integer (e.g. `size_L1`).
    pub fn global(mut self, name: &str, value: i64) -> Self {
        self.globals.set(name, value);
        self
    }

    /// Register a host function callable from expressions
    /// (e.g. `chain_len`, `find_last_segment_owner`).
    pub fn func(mut self, name: &str, f: HostFn) -> Self {
        self.globals.func(name, f);
        self
    }

    /// Register a task body by name.
    pub fn body(
        mut self,
        name: &str,
        f: impl Fn(TaskKey, &mut [Option<Payload>]) -> Vec<Option<Payload>> + Send + Sync + 'static,
    ) -> Self {
        self.bodies.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Register a data provider for memory inputs.
    pub fn data(
        mut self,
        name: &str,
        f: impl Fn(&[i64]) -> Payload + Send + Sync + 'static,
    ) -> Self {
        self.data.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Register a cost hook for a class (simulated engine).
    pub fn cost(
        mut self,
        class: &str,
        f: impl Fn(TaskKey) -> TaskCost + Send + Sync + 'static,
    ) -> Self {
        self.costs.insert(class.to_string(), Arc::new(f));
        self
    }

    /// Set the trace activity of a class.
    pub fn activity(mut self, class: &str, a: Activity) -> Self {
        self.activities.insert(class.to_string(), a);
        self
    }

    /// Compile into a [`TaskGraph`] over `ctx`.
    pub fn compile(self, ctx: Arc<dyn GraphCtx>) -> Result<TaskGraph, DslError> {
        let classes = parse_program(&self.src)?;
        let mut by_name = HashMap::new();
        for (i, c) in classes.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return derr(0, format!("duplicate class `{}`", c.name));
            }
        }
        // Validate dep targets exist.
        for c in &classes {
            for f in &c.flows {
                for clause in f.ins.iter().chain(&f.outs) {
                    if let DepTarget::Task {
                        class,
                        remote_flow,
                        args,
                    } = &clause.target
                    {
                        let Some(&ti) = by_name.get(class) else {
                            return derr(0, format!("{}: unknown class `{class}`", c.name));
                        };
                        if !classes[ti].flows.iter().any(|fl| &fl.name == remote_flow) {
                            return derr(
                                0,
                                format!("{}: class `{class}` has no flow `{remote_flow}`", c.name),
                            );
                        }
                        if args.len() != classes[ti].params.len() {
                            return derr(
                                0,
                                format!(
                                    "{}: `{class}` takes {} params, {} given",
                                    c.name,
                                    classes[ti].params.len(),
                                    args.len()
                                ),
                            );
                        }
                    }
                }
            }
        }
        // Constant-fold every stored expression once; per-task evaluation
        // then skips the folded subtrees.
        let classes: Vec<ClassDef> = classes.into_iter().map(fold_class).collect();
        let prog = Arc::new(Program {
            classes,
            by_name,
            globals: self.globals,
            bodies: self.bodies,
            data: self.data,
            costs: self.costs,
            activities: self.activities,
        });
        let n = prog.classes.len();
        let classes: Vec<Arc<dyn TaskClass>> = (0..n)
            .map(|idx| {
                Arc::new(InterpClass {
                    prog: prog.clone(),
                    idx,
                }) as Arc<dyn TaskClass>
            })
            .collect();
        Ok(TaskGraph::new(classes, ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::audit;
    use crate::PlainCtx;

    /// A faithful transliteration of the paper's Figure 1: GEMMs chained
    /// serially per chain, fed by reader tasks, ending in a SORT.
    const FIG1: &str = r#"
        READ_A(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        : rr(L1)
        WRITE A <- input_a(L1, L2)
                -> A GEMM(L1, L2)
        ; size_L1 - L1 + 5 * P
        BODY reader

        READ_B(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        : rr(L1)
        WRITE B <- input_b(L1, L2)
                -> B GEMM(L1, L2)
        ; size_L1 - L1 + 5 * P
        BODY reader

        DFILL(L1)
        L1 = 0 .. size_L1 - 1
        : rr(L1)
        WRITE C -> C GEMM(L1, 0)
        ; size_L1 - L1
        BODY dfill

        GEMM(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        : rr(L1)
        READ A <- A READ_A(L1, L2)
        READ B <- B READ_B(L1, L2)
        RW C <- (L2 == 0) ? C DFILL(L1)
             <- (L2 != 0) ? C GEMM(L1, L2 - 1)
             -> (L2 < size_L2 - 1) ? C GEMM(L1, L2 + 1)
             -> (L2 == size_L2 - 1) ? C SORT(L1)
        ; size_L1 - L1 + 1 * P
        BODY gemm

        SORT(L1)
        L1 = 0 .. size_L1 - 1
        : rr(L1)
        READ C <- C GEMM(L1, size_L2 - 1)
        BODY sort
    "#;

    fn fig1_graph(size_l1: i64, size_l2: i64, nodes: usize) -> TaskGraph {
        DslBuilder::new(FIG1)
            .global("size_L1", size_l1)
            .global("size_L2", size_l2)
            .func("rr", Arc::new(move |a: &[i64]| a[0]))
            .compile(Arc::new(PlainCtx { nodes }))
            .unwrap()
    }

    #[test]
    fn fig1_parses_and_audits() {
        let g = fig1_graph(3, 4, 2);
        let a = audit(&g, 10_000).unwrap();
        // 3 chains x 4 links: readers 2*12, dfill 3, gemm 12, sort 3.
        assert_eq!(a.tasks_per_class["READ_A"], 12);
        assert_eq!(a.tasks_per_class["READ_B"], 12);
        assert_eq!(a.tasks_per_class["DFILL"], 3);
        assert_eq!(a.tasks_per_class["GEMM"], 12);
        assert_eq!(a.tasks_per_class["SORT"], 3);
        assert_eq!(a.total_tasks, 42);
        // Chain depth: DFILL -> GEMM x4 -> SORT = 5 edges.
        assert_eq!(a.depth, 5);
        // Each GEMM gets A, B, C; sort gets C.
        assert_eq!(a.total_deps, 12 + 12 + 12 + 3);
        // Readers and DFILLs are the only roots.
        assert_eq!(a.roots, 27);
    }

    #[test]
    fn fig1_priorities_follow_paper_scheme() {
        let g = fig1_graph(3, 4, 2);
        let ctx = g.ctx();
        let gemm = g.class_id("GEMM").unwrap();
        let ra = g.class_id("READ_A").unwrap();
        let k = |c, p: &[i64]| TaskKey::new(c, p);
        // Same class: earlier chain wins.
        let p0 = g.class_of(k(gemm, &[0, 0])).priority(k(gemm, &[0, 0]), ctx);
        let p1 = g.class_of(k(gemm, &[1, 0])).priority(k(gemm, &[1, 0]), ctx);
        assert!(p0 > p1);
        // Readers get the +5*P offset: reader of chain j beats GEMM of
        // chain i only while j < i + 4*P.
        let pr = g.class_of(k(ra, &[2, 0])).priority(k(ra, &[2, 0]), ctx);
        assert!(
            pr > p0,
            "reader of a later chain outranks early GEMMs within the pipeline depth"
        );
    }

    #[test]
    fn fig1_placement_round_robin() {
        let g = fig1_graph(5, 2, 2);
        let ctx = g.ctx();
        let gemm = g.class_id("GEMM").unwrap();
        let place = |l1: i64| {
            g.class_of(TaskKey::new(gemm, &[l1, 0]))
                .placement(TaskKey::new(gemm, &[l1, 0]), ctx)
        };
        assert_eq!(place(0), 0);
        assert_eq!(place(1), 1);
        assert_eq!(place(2), 0);
    }

    /// Figure 2: the GEMM's C flow becomes a WRITE straight into a
    /// reduction — the one-line change enabling parallel GEMMs.
    const FIG2_GEMM: &str = r#"
        READ_A(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        WRITE A <- input_a(L1, L2) -> A GEMM(L1, L2)
        BODY reader

        READ_B(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        WRITE B <- input_b(L1, L2) -> B GEMM(L1, L2)
        BODY reader

        GEMM(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        READ A <- A READ_A(L1, L2)
        READ B <- B READ_B(L1, L2)
        WRITE C -> A REDUCTION(L1, L2)
        BODY gemm

        REDUCTION(L1, L2)
        L1 = 0 .. size_L1 - 1
        L2 = 0 .. size_L2 - 1
        READ A <- A GEMM(L1, L2)
        RW C <- (L2 != 0) ? C REDUCTION(L1, L2 - 1)
             -> (L2 < size_L2 - 1) ? C REDUCTION(L1, L2 + 1)
             -> (L2 == size_L2 - 1) ? C SORT(L1)
        BODY reduce

        SORT(L1)
        L1 = 0 .. size_L1 - 1
        READ C <- C REDUCTION(L1, size_L2 - 1)
        BODY sort
    "#;

    #[test]
    fn fig2_gemms_become_parallel() {
        let g = DslBuilder::new(FIG2_GEMM)
            .global("size_L1", 2)
            .global("size_L2", 6)
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap();
        let a = audit(&g, 10_000).unwrap();
        // GEMMs now all sit at the same level (depth 1 from readers):
        // the long pole is the reduction spine, not the GEMM chain.
        assert_eq!(a.tasks_per_class["GEMM"], 12);
        assert_eq!(a.tasks_per_class["REDUCTION"], 12);
        // Depth: READ -> GEMM -> RED(0) -> ... -> RED(5) -> SORT = 2+6.
        assert_eq!(a.depth, 8);
        // In Figure 1 with the same sizes the depth would be 1 (read) +
        // 6 (chain) + 1 (sort) = 7 but GEMM width 1 per chain; here GEMM
        // width is size_L2 per chain.
        assert!(a.max_level_width >= 12);
    }

    #[test]
    fn execution_with_bodies_runs_dataflow() {
        // Tiny 1-chain program: DFILL -> GEMM*3 -> SORT with counting
        // bodies. Execution engines are tested in parsec-rt; here we just
        // check execute() plumbing (default pass-through + custom bodies).
        let g = fig1_graph(1, 3, 1);
        let ctx = g.ctx();
        let gemm_id = g.class_id("GEMM").unwrap();
        let key = TaskKey::new(gemm_id, &[0, 1]);
        let class = g.class_of(key);
        let mut inputs: Vec<Option<Payload>> = vec![
            Some(Payload::from(vec![1.0])),
            Some(Payload::from(vec![2.0])),
            Some(Payload::from(vec![3.0])),
        ];
        let out = class.execute(key, ctx, &mut inputs);
        // Default body forwards flow C (index 2).
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].as_ref().unwrap()[0], 3.0);
    }

    #[test]
    fn data_providers_feed_memory_inputs() {
        let src = r#"
            T(I)
            I = 0 .. 1
            READ X <- table(I * 10)
            WRITE Y -> X T2(I)
            BODY passx

            T2(I)
            I = 0 .. 1
            READ X <- X T(I)
            BODY done
        "#;
        let g = DslBuilder::new(src)
            .data("table", |args| Payload::from(vec![args[0] as f64]))
            .body("passx", |_k, inputs| {
                let x = inputs[0].take();
                vec![None, x]
            })
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap();
        let key = TaskKey::new(0, &[1]);
        let mut inputs = vec![None, None];
        let out = g.class_of(key).execute(key, g.ctx(), &mut inputs);
        assert_eq!(out[1].as_ref().unwrap()[0], 10.0);
    }

    #[test]
    fn parse_errors_are_reported_with_lines() {
        assert!(DslBuilder::new("JUNK")
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .is_err());
        let e = DslBuilder::new("A(I)\nI = 0 .. 1\nREAD X <- X NOPE(I)\nBODY b")
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap_err();
        assert!(e.msg.contains("unknown class"), "{e}");
        let e = DslBuilder::new("A(I)\nBODY b")
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap_err();
        assert!(e.msg.contains("ranges"), "{e}");
    }

    #[test]
    fn write_flow_rejects_inputs_from_tasks_only_syntax_level() {
        // WRITE flows may take memory inputs (initial data) but we reject
        // plain `<-` on READ-only flows' outputs etc.
        let e = DslBuilder::new("A(I)\nI = 0 .. 0\nREAD X -> X A(I)\nBODY b")
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap_err();
        assert!(e.msg.contains("cannot have outputs"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = "
            // a leading comment
            A(I)   // trailing comment
            I = 0 .. 2

            WRITE X -> X B(I)  // deps comment
            BODY a

            B(I)
            I = 0 .. 2
            READ X <- X A(I)
            BODY b
        ";
        let g = DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap();
        assert_eq!(g.classes().len(), 2);
        assert_eq!(g.roots().len(), 3);
    }

    #[test]
    fn placement_wraps_modulo_nodes() {
        let src = "A(I)
I = 0 .. 9
: I - 5
WRITE X -> X A(I)
BODY a";
        // (self-edge is nonsense but placement is queried without walking)
        let g = DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 4 }))
            .unwrap();
        let ctx = g.ctx();
        let k = |i: i64| TaskKey::new(0, &[i]);
        // -5 wraps via rem_euclid.
        assert_eq!(g.class_of(k(0)).placement(k(0), ctx), 3);
        assert_eq!(g.class_of(k(5)).placement(k(5), ctx), 0);
        assert_eq!(g.class_of(k(9)).placement(k(9), ctx), 0);
    }

    #[test]
    fn p_is_bound_to_node_count() {
        let src = "A(I)
I = 0 .. 0
WRITE X -> X A(I)
; P * 10
BODY a";
        let g = DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 7 }))
            .unwrap();
        let k = TaskKey::new(0, &[0]);
        assert_eq!(g.class_of(k).priority(k, g.ctx()), 70);
    }

    #[test]
    fn param_dependent_ranges_enumerate_triangles() {
        // J ranges over 0..I: a triangular domain.
        let src = "A(I, J)
I = 0 .. 3
J = 0 .. I
WRITE X -> X A(I, J)
BODY a";
        let g = DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap();
        // roots = all (I, J) with J <= I: 1+2+3+4 = 10... but every task
        // also has a self-output making none of them sinks; roots counts
        // keys with num_inputs == 0 which is all of them (no task inputs).
        assert_eq!(g.roots().len(), 10);
    }

    #[test]
    fn guard_first_match_wins_for_inputs() {
        // Two satisfiable input guards on one flow: only one counts.
        let src = r#"
            S(I)
            I = 0 .. 0
            WRITE X -> X T(0)
            BODY s

            T(I)
            I = 0 .. 0
            RW X <- (I == 0) ? X S(0)
                 <- (I <= 0) ? X S(0)
            BODY t
        "#;
        let g = DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap();
        let t = TaskKey::new(1, &[0]);
        assert_eq!(g.class_of(t).num_inputs(t, g.ctx()), 1);
    }
}
