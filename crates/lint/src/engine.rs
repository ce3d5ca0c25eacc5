//! Workspace call graph and transitive effect summaries.
//!
//! PR 4's passes stopped at a one-level, same-file helper walk: a guard
//! held two calls deep, or a helper living in another module, was
//! invisible. This module is the interprocedural layer those passes now
//! stand on:
//!
//! 1. **Resolution** — every call expression in every non-test function is
//!    mapped to candidate definitions across the whole workspace: free
//!    calls through same-file scope, `use` imports, module paths, and
//!    unique-name matching; method calls through receiver types inferred
//!    from `self`, typed params, `let x: T`, `Type::ctor(..)` bindings,
//!    and struct field declarations (so `state.db.append(..)` resolves to
//!    `Database::append` through `MoiraState.db`'s declared type).
//! 2. **Primitive effects** — each function body is scanned for the
//!    effect primitives the discipline passes care about: acquiring a
//!    SharedState read/write guard, blocking (sleep / blocking receive /
//!    fsync / park / `std::fs` / `std::net`), mutating the database
//!    through the journaled APIs, entering a reactor wait, and
//!    full-table scans.
//! 3. **Fixpoint propagation** — effects flow from callee to caller over
//!    the call graph until nothing changes. The iteration is monotone
//!    (bits only turn on), so recursion and helper cycles terminate
//!    naturally. Each propagated effect remembers the call edge that
//!    introduced it, so a diagnostic can print the full witness chain
//!    (`a.rs:12 → b.rs:90 → c.rs:33`) down to the primitive site.
//!
//! Soundness caveats (documented in DESIGN.md "Static invariants"):
//! resolution is best-effort — calls through function pointers, closures
//! passed across functions, trait objects with unknown receiver types,
//! and macro-generated code produce no edges. The passes stay
//! deny-by-default on what the graph *can* see; the graph never invents
//! edges for names it cannot pin down (a denylist keeps ubiquitous std
//! method names like `.iter()` / `.push()` from linking by accident).

use std::collections::{HashMap, HashSet};

use crate::scan;
use crate::Workspace;
use syn::{Item, ItemFn, Token, TokenKind};

/// Function identifier: index into [`Engine::fns`].
pub type FnId = usize;

/// The effect lattice: one bit per effect, propagated caller-ward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Acquires a SharedState read guard (`state.read()` / `try_read()`).
    AcquiresRead = 0,
    /// Acquires a SharedState write guard (`state.write()` / `try_write()`).
    AcquiresWrite = 1,
    /// Performs a blocking call: sleep, blocking receive, park, fsync,
    /// `std::fs` / `std::net`, connect/bind/accept.
    Blocks = 2,
    /// Mutates MoiraState / the database through the journaled APIs.
    Mutates = 3,
    /// Enters a reactor wait (directly or via a loop entry point).
    Waits = 4,
    /// Enumerates a whole table (`.table(..).iter()`, `Pred::True`).
    Scans = 5,
    /// Performs socket-level network I/O (`connect`/`bind`/`accept`,
    /// `std::net`). Kept distinct from `Blocks`: the reactor loop's
    /// sockets are all non-blocking, so these are legal on the wait path
    /// but still denied under a SharedState guard.
    BlocksNet = 6,
}

pub const EFFECT_COUNT: usize = 7;

impl Effect {
    pub const ALL: [Effect; EFFECT_COUNT] = [
        Effect::AcquiresRead,
        Effect::AcquiresWrite,
        Effect::Blocks,
        Effect::Mutates,
        Effect::Waits,
        Effect::Scans,
        Effect::BlocksNet,
    ];

    /// Short human phrase used inside diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            Effect::AcquiresRead => "acquires a state read guard",
            Effect::AcquiresWrite => "acquires a state write guard",
            Effect::Blocks => "performs a blocking call",
            Effect::Mutates => "mutates the database",
            Effect::Waits => "enters a reactor wait",
            Effect::Scans => "enumerates a whole table",
            Effect::BlocksNet => "performs network I/O",
        }
    }
}

/// A set of effects, with monotone insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EffectSet {
    bits: u8,
}

impl EffectSet {
    pub fn has(self, e: Effect) -> bool {
        self.bits & (1 << e as u8) != 0
    }

    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// True when either guard-acquisition bit is set.
    pub fn acquires(self) -> bool {
        self.has(Effect::AcquiresRead) || self.has(Effect::AcquiresWrite)
    }

    fn insert(&mut self, e: Effect) -> bool {
        let before = self.bits;
        self.bits |= 1 << e as u8;
        self.bits != before
    }
}

/// Where a function's effect came from: a primitive site in its own body,
/// or a call to a function that already had the effect.
#[derive(Debug, Clone)]
pub enum Origin {
    Prim { line: u32, what: String },
    Call { line: u32, callee: FnId },
}

/// One function in the workspace.
pub struct FnNode<'a> {
    /// Index of the containing file in `Workspace::files`.
    pub file: usize,
    pub func: &'a ItemFn,
    /// `impl`/`trait` block type name, when the fn is an associated item.
    pub owner: Option<String>,
    /// Fully qualified module path, e.g. `moira_db::lock`.
    pub module: String,
    pub in_test: bool,
    /// Signature mentions a guard type: call sites open a guard scope.
    pub returns_guard: bool,
}

/// A resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name (free call) or the `.` (method call)
    /// in the caller's body.
    pub idx: usize,
    /// Token index of the call's closing `)`.
    pub close: usize,
    pub line: u32,
    /// Callee name as written at the site.
    pub name: String,
    /// Candidate definitions (empty when unresolvable).
    pub targets: Vec<FnId>,
    /// Call site carries a `full-rebuild fallback` marker comment: the
    /// `Scans` effect does not propagate over this edge.
    pub marked: bool,
    /// The site is a method call (`.name(..)`) rather than a free call.
    pub method: bool,
}

/// The call graph + effect summaries for one workspace.
pub struct Engine<'a> {
    pub fns: Vec<FnNode<'a>>,
    /// Per-function resolved call sites.
    calls: Vec<Vec<CallSite>>,
    /// Per-function transitive effect summaries (after fixpoint).
    effects: Vec<EffectSet>,
    /// Per-function, per-effect witness origin.
    origins: Vec<[Option<Origin>; EFFECT_COUNT]>,
    /// File index -> FnIds in that file.
    by_file: Vec<Vec<FnId>>,
    /// File relative paths, indexed like `Workspace::files`.
    rels: Vec<String>,
}

/// Method names too ubiquitous (std types, iterators, collections) to link
/// by bare-name uniqueness; they only resolve through a typed receiver.
const METHOD_DENYLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "next",
    "send",
    "recv",
    "read",
    "write",
    "try_read",
    "try_write",
    "flush",
    "lock",
    "wait",
    "join",
    "run",
    "start",
    "stop",
    "close",
    "open",
    "create",
    "spawn",
    "truncate",
    "write_all",
    "read_to_string",
    "set_len",
    "clear",
    "reset",
    "name",
    "kind",
    "code",
    "fmt",
    "min",
    "max",
    "sort",
    "dedup",
    "retain",
    "extend",
    "append",
    "update",
    "delete",
    "set",
    "advance",
    "take",
    "drain",
    "entry",
    "keys",
    "values",
    "split",
    "trim",
    "parse",
    "encode",
    "decode",
    "as_str",
    "map",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "count",
    "sum",
    "collect",
    "unwrap",
    "expect",
    "to_string",
    "into_iter",
    "chars",
    "lines",
    "bytes",
    "first",
    "last",
    "rev",
    "zip",
    "skip",
    "chain",
    "cell",
    "select",
    "select_one",
    "table",
];

/// Smart-pointer / container wrappers stripped when deriving a base type
/// from a type token stream (`Box<dyn Storage>` -> `Storage`).
const TYPE_WRAPPERS: &[&str] = &[
    "Box", "Arc", "Rc", "Vec", "VecDeque", "Option", "Mutex", "RwLock", "RefCell", "Cell",
    "Result", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "String", "dyn", "impl", "mut", "ref",
    "const",
];

/// Methods that hand back (a view of) their receiver's payload type:
/// `host.lock().method()` resolves `method` against the `Mutex` payload.
const PASSTHROUGH_METHODS: &[&str] = &[
    "lock",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "unwrap",
    "expect",
    "clone",
];

/// RwLock acquisition methods on the shared state.
const ACQUIRE_READ: &[&str] = &["read", "try_read"];
const ACQUIRE_WRITE: &[&str] = &["write", "try_write"];

/// Receiver chains whose last identifier is one of these are the shared
/// state handle.
pub const STATE_RECV: &[&str] = &["state", "shared"];

/// Hard-blocking calls (method or free form): the thread parks or sleeps.
const BLOCKING: &[&str] = &[
    "sleep",
    "recv_blocking",
    "recv_timeout",
    "park",
    "sync_all",
    "sync_data",
];

/// Socket-level calls: blocking unless the fd is non-blocking.
const BLOCKING_NET: &[&str] = &["connect", "bind", "accept"];

/// Path prefixes that are hard-blocking wherever they appear.
const BLOCKING_PATHS: &[&[&str]] = &[&["std", "fs"]];

/// Path prefixes that are network I/O wherever they appear.
const NET_PATHS: &[&[&str]] = &[&["std", "net"]];

/// Mutating Database / Table / MoiraState APIs (the journaling surface).
pub const MUTATING: &[&str] = &[
    "append",
    "update",
    "delete",
    "delete_where",
    "table_mut",
    "create_table",
    "set_value",
];

/// Types whose `MUTATING`-named methods are mutation primitives by
/// definition.
const MUTATING_OWNERS: &[&str] = &["Database", "Table", "MoiraState"];

/// Receivers whose `.wait(..)` is the reactor's blocking point.
const WAIT_RECV: &[&str] = &["reactor", "poller"];

/// Loop entry points that contain the reactor wait.
const LOOP_WAITS: &[&str] = &["poll_with_timeout", "poll_once", "run_until_idle"];

impl<'a> Engine<'a> {
    /// Builds the call graph and runs effect propagation to fixpoint.
    pub fn build(ws: &'a Workspace) -> Engine<'a> {
        let mut fns: Vec<FnNode<'a>> = Vec::new();
        let mut by_file: Vec<Vec<FnId>> = vec![Vec::new(); ws.files.len()];
        let mut rels: Vec<String> = Vec::with_capacity(ws.files.len());

        // Per-file side tables gathered in the same walk.
        let mut uses: Vec<HashMap<String, Vec<String>>> = Vec::with_capacity(ws.files.len());
        let mut fields: HashMap<(String, String), String> = HashMap::new();
        let mut trait_impls: Vec<(String, String)> = Vec::new(); // (trait, type)

        for (fi, sf) in ws.files.iter().enumerate() {
            rels.push(sf.rel.clone());
            let module = module_of(&sf.rel);
            let mut file_uses = HashMap::new();
            collect_items(
                &sf.ast.items,
                &module,
                None,
                false,
                fi,
                &mut fns,
                &mut file_uses,
                &mut fields,
                &mut trait_impls,
            );
            uses.push(file_uses);
        }
        for (id, f) in fns.iter().enumerate() {
            by_file[f.file].push(id);
        }

        // Name indexes.
        let mut free_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut free_by_path: HashMap<(String, &str), FnId> = HashMap::new();
        let mut methods_by_owner: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        let mut methods_by_name: HashMap<&str, Vec<FnId>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            match &f.owner {
                Some(owner) => {
                    methods_by_owner
                        .entry((owner.as_str(), f.func.name.as_str()))
                        .or_default()
                        .push(id);
                    methods_by_name
                        .entry(f.func.name.as_str())
                        .or_default()
                        .push(id);
                }
                None => {
                    free_by_name
                        .entry(f.func.name.as_str())
                        .or_default()
                        .push(id);
                    free_by_path
                        .entry((f.module.clone(), f.func.name.as_str()))
                        .or_insert(id);
                }
            }
        }
        // Trait-object dispatch: candidates for (Trait, m) include every
        // implementing type's m.
        let mut trait_merged: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        for (tr, ty) in &trait_impls {
            let keys: Vec<&str> = methods_by_owner
                .keys()
                .filter(|(o, _)| *o == ty.as_str())
                .map(|(_, m)| *m)
                .collect();
            for m in keys {
                let ids = methods_by_owner[&(ty.as_str(), m)].clone();
                trait_merged
                    .entry((tr.as_str(), m))
                    .or_default()
                    .extend(ids);
            }
        }
        for ((tr, m), ids) in trait_merged {
            methods_by_owner.entry((tr, m)).or_default().extend(ids);
        }
        let owned_types: HashSet<&str> = fns
            .iter()
            .filter_map(|f| f.owner.as_deref())
            .chain(fields.keys().map(|(t, _)| t.as_str()))
            .collect();
        let mut method_owner_counts: HashMap<&str, usize> = HashMap::new();
        {
            let mut owners_of: HashMap<&str, HashSet<&str>> = HashMap::new();
            for f in fns.iter().filter(|f| !f.in_test) {
                if let Some(owner) = f.owner.as_deref() {
                    owners_of
                        .entry(f.func.name.as_str())
                        .or_default()
                        .insert(owner);
                }
            }
            for (name, owners) in owners_of {
                method_owner_counts.insert(name, owners.len());
            }
        }

        let resolver = Resolver {
            free_by_name: &free_by_name,
            free_by_path: &free_by_path,
            methods_by_owner: &methods_by_owner,
            methods_by_name: &methods_by_name,
            method_owner_counts: &method_owner_counts,
            fields: &fields,
            owned_types: &owned_types,
        };

        // Marker lines per file (the `full-rebuild fallback` escape).
        let markers: Vec<HashSet<u32>> = ws
            .files
            .iter()
            .map(|sf| {
                sf.ast
                    .comments
                    .iter()
                    .filter(|c| c.text.contains("full-rebuild fallback"))
                    .map(|c| c.line)
                    .collect()
            })
            .collect();

        // Call sites + primitive effects.
        let n = fns.len();
        let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(n);
        let mut effects: Vec<EffectSet> = vec![EffectSet::default(); n];
        let mut origins: Vec<[Option<Origin>; EFFECT_COUNT]> =
            (0..n).map(|_| std::array::from_fn(|_| None)).collect();

        for id in 0..n {
            let node = &fns[id];
            if node.in_test || !node.func.has_body {
                calls.push(Vec::new());
                continue;
            }
            let sf = &ws.files[node.file];
            let local_types = local_types(node);
            let sites = extract_calls(
                node,
                &fns[id].module,
                &uses[node.file],
                &local_types,
                &resolver,
                &by_file[node.file],
                &fns,
                id,
                &markers[node.file],
            );
            for (e, line, what) in prim_effects(node, &local_types, &sf.rel) {
                if effects[id].insert(e) {
                    origins[id][e as usize] = Some(Origin::Prim { line, what });
                }
            }
            calls.push(sites);
        }

        let mut engine = Engine {
            fns,
            calls,
            effects,
            origins,
            by_file,
            rels,
        };
        engine.fixpoint();
        engine
    }

    /// Monotone propagation: callee effects flow to callers until stable.
    /// Helper cycles are harmless — bits only ever turn on.
    fn fixpoint(&mut self) {
        loop {
            let mut changed = false;
            for id in 0..self.fns.len() {
                if self.fns[id].in_test {
                    continue;
                }
                for c in 0..self.calls[id].len() {
                    let (line, marked) = (self.calls[id][c].line, self.calls[id][c].marked);
                    for t in 0..self.calls[id][c].targets.len() {
                        let callee = self.calls[id][c].targets[t];
                        if callee == id {
                            continue;
                        }
                        let callee_eff = self.effects[callee];
                        for e in Effect::ALL {
                            if e == Effect::Scans && marked {
                                continue;
                            }
                            if callee_eff.has(e) && self.effects[id].insert(e) {
                                self.origins[id][e as usize] = Some(Origin::Call { line, callee });
                                changed = true;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// The transitive effect summary of a function.
    pub fn effects(&self, id: FnId) -> EffectSet {
        self.effects[id]
    }

    /// Resolved call sites inside a function body.
    pub fn calls(&self, id: FnId) -> &[CallSite] {
        &self.calls[id]
    }

    /// FnIds defined in the file at `file_idx`.
    pub fn fns_in_file(&self, file_idx: usize) -> &[FnId] {
        &self.by_file[file_idx]
    }

    /// The workspace-relative path of the file containing `id`.
    pub fn rel(&self, id: FnId) -> &str {
        &self.rels[self.fns[id].file]
    }

    /// Finds the non-test fn named `name` in the file at `file_idx`
    /// (first definition wins, mirroring `SourceFile::fn_map`).
    pub fn fn_in_file(&self, file_idx: usize, name: &str) -> Option<FnId> {
        self.by_file[file_idx]
            .iter()
            .copied()
            .find(|&id| !self.fns[id].in_test && self.fns[id].func.name == name)
    }

    /// The witness chain for `id`'s `effect`: `(file, line)` hops from
    /// `id`'s body down to the primitive site, plus a description of the
    /// primitive. Empty chain when the fn does not have the effect.
    pub fn chain(&self, id: FnId, effect: Effect) -> (Vec<(String, u32)>, String) {
        let mut hops = Vec::new();
        let mut cur = id;
        let mut what = effect.describe().to_string();
        // The origin DAG is acyclic by construction (an origin always
        // points at a node whose effect was set earlier), but cap the walk
        // anyway.
        for _ in 0..64 {
            match &self.origins[cur][effect as usize] {
                Some(Origin::Prim { line, what: w }) => {
                    hops.push((self.rels[self.fns[cur].file].clone(), *line));
                    what = w.clone();
                    break;
                }
                Some(Origin::Call { line, callee }) => {
                    hops.push((self.rels[self.fns[cur].file].clone(), *line));
                    cur = *callee;
                }
                None => break,
            }
        }
        (hops, what)
    }

    /// The witness chain for a call from `site` into `target`, starting at
    /// the call site itself: `caller_file:site_line → ... → prim`.
    pub fn chain_through(
        &self,
        caller: FnId,
        site_line: u32,
        target: FnId,
        effect: Effect,
    ) -> (Vec<(String, u32)>, String) {
        let (mut hops, what) = self.chain(target, effect);
        hops.insert(0, (self.rels[self.fns[caller].file].clone(), site_line));
        hops.dedup();
        (hops, what)
    }
}

/// Name-resolution context shared across functions.
struct Resolver<'e> {
    free_by_name: &'e HashMap<&'e str, Vec<FnId>>,
    free_by_path: &'e HashMap<(String, &'e str), FnId>,
    methods_by_owner: &'e HashMap<(&'e str, &'e str), Vec<FnId>>,
    methods_by_name: &'e HashMap<&'e str, Vec<FnId>>,
    /// Method name -> number of distinct owner types defining it.
    method_owner_counts: &'e HashMap<&'e str, usize>,
    fields: &'e HashMap<(String, String), String>,
    owned_types: &'e HashSet<&'e str>,
}

/// `crates/db/src/generators/mod.rs` → `moira_db::generators`.
fn module_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() >= 4 && parts[0] == "crates" && parts[2] == "src" {
        let mut mods = vec![format!("moira_{}", parts[1])];
        for p in &parts[3..] {
            let stem = p.trim_end_matches(".rs");
            if stem == "lib" || stem == "main" || stem == "mod" {
                continue;
            }
            mods.push(stem.to_string());
        }
        mods.join("::")
    } else {
        rel.trim_end_matches(".rs").replace('/', "::")
    }
}

/// Recursive item walk: collects functions (with impl owner and module
/// path), `use` imports, struct field types, and trait-impl pairs.
#[allow(clippy::too_many_arguments)]
fn collect_items<'a>(
    items: &'a [Item],
    module: &str,
    owner: Option<&str>,
    in_test: bool,
    file: usize,
    fns: &mut Vec<FnNode<'a>>,
    uses: &mut HashMap<String, Vec<String>>,
    fields: &mut HashMap<(String, String), String>,
    trait_impls: &mut Vec<(String, String)>,
) {
    for item in items {
        match item {
            Item::Fn(f) => {
                let returns_guard = f
                    .sig
                    .iter()
                    .any(|t| t.kind == TokenKind::Ident && t.text.contains("Guard"));
                fns.push(FnNode {
                    file,
                    func: f,
                    owner: owner.map(str::to_string),
                    module: module.to_string(),
                    in_test: in_test || f.attrs.iter().any(|a| a.is_test()),
                    returns_guard,
                });
            }
            Item::Mod(m) => {
                if let Some(inner) = &m.items {
                    let test = in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                    let sub = format!("{module}::{}", m.name);
                    collect_items(
                        inner,
                        &sub,
                        owner,
                        test,
                        file,
                        fns,
                        uses,
                        fields,
                        trait_impls,
                    );
                }
            }
            Item::Impl(im) => {
                let (trait_name, type_name) = impl_parts(&im.header);
                if let (Some(tr), Some(ty)) = (&trait_name, &type_name) {
                    trait_impls.push((tr.clone(), ty.clone()));
                }
                let own = type_name.or(trait_name);
                collect_items(
                    &im.items,
                    module,
                    own.as_deref(),
                    in_test,
                    file,
                    fns,
                    uses,
                    fields,
                    trait_impls,
                );
            }
            Item::Other(toks) => {
                let mut k = 0usize;
                while k < toks.len() && is_item_modifier(&toks[k]) {
                    k += 1;
                    if k < toks.len() && toks[k].is_punct('(') {
                        k = scan::close_of(toks, k) + 1;
                    }
                }
                match toks.get(k).map(|t| t.text.as_str()) {
                    Some("use") => parse_use(toks, k + 1, module, uses),
                    Some("struct") => parse_struct_fields(toks, k + 1, fields),
                    _ => {}
                }
            }
        }
    }
}

fn is_item_modifier(t: &Token) -> bool {
    t.kind == TokenKind::Ident
        && matches!(
            t.text.as_str(),
            "pub" | "const" | "unsafe" | "async" | "extern"
        )
}

/// Splits an impl/trait header into (trait name, self type name).
/// `Storage for DurableEngine` → (Some(Storage), Some(DurableEngine));
/// `Registry` → (None, Some(Registry));
/// a `trait T` header parses the same way (owner = T).
fn impl_parts(header: &[Token]) -> (Option<String>, Option<String>) {
    let mut i = 0usize;
    // Leading generics `<...>`.
    if header.first().is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while i < header.len() {
            if header[i].is_punct('<') {
                depth += 1;
            } else if header[i].is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Split at a top-level `for`.
    let mut depth = 0i32;
    let mut for_pos = None;
    for (j, t) in header.iter().enumerate().skip(i) {
        if t.is_punct('<') || t.is_punct('(') {
            depth += 1;
        } else if t.is_punct('>') || t.is_punct(')') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("for") {
            for_pos = Some(j);
            break;
        } else if depth == 0 && (t.is_ident("where") || t.is_punct(':')) {
            break;
        }
    }
    let base_of = |toks: &[Token]| -> Option<String> {
        // Last path-segment ident before generic args.
        let mut last = None;
        let mut depth = 0i32;
        for t in toks {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
            } else if depth == 0 && t.kind == TokenKind::Ident && t.text != "dyn" {
                last = Some(t.text.clone());
            } else if depth == 0 && t.is_ident("where") {
                break;
            }
        }
        last
    };
    match for_pos {
        Some(p) => (base_of(&header[i..p]), base_of(&header[p + 1..])),
        None => (None, base_of(&header[i..])),
    }
}

/// Parses one `use` item (tokens after the `use` keyword) into
/// name → full-path-segments entries. Handles `::`-separated paths,
/// `{...}` groups (recursively), `as` renames, and `self`; glob imports
/// are ignored.
fn parse_use(toks: &[Token], start: usize, module: &str, out: &mut HashMap<String, Vec<String>>) {
    fn walk(
        toks: &[Token],
        mut i: usize,
        end: usize,
        prefix: &[String],
        module: &str,
        out: &mut HashMap<String, Vec<String>>,
    ) {
        let mut path = prefix.to_vec();
        while i < end {
            let t = &toks[i];
            if t.kind == TokenKind::Ident {
                let seg = t.text.clone();
                // `name as alias`
                if toks.get(i + 1).is_some_and(|n| n.is_ident("as")) {
                    if let Some(alias) = toks.get(i + 2).filter(|a| a.kind == TokenKind::Ident) {
                        let mut full = path.clone();
                        push_seg(&mut full, &seg, module);
                        out.insert(alias.text.clone(), full);
                    }
                    return;
                }
                // `path::` continues; a terminal segment is a leaf.
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                {
                    push_seg(&mut path, &seg, module);
                    i += 3;
                    continue;
                }
                if seg == "self" {
                    if let Some(last) = path.last().cloned() {
                        out.insert(last, path.clone());
                    }
                } else {
                    let mut full = path.clone();
                    push_seg(&mut full, &seg, module);
                    out.insert(seg, full);
                }
                return;
            }
            if t.is_punct('{') {
                // Group: each comma-separated subtree restarts from `path`.
                let close = scan::close_of(toks, i);
                let mut j = i + 1;
                let mut depth = 0i32;
                let mut item_start = j;
                while j <= close && j < toks.len() {
                    let u = &toks[j];
                    if u.is_punct('{') {
                        depth += 1;
                    } else if u.is_punct('}') {
                        if depth == 0 {
                            if item_start < j {
                                walk(toks, item_start, j, &path, module, out);
                            }
                            break;
                        }
                        depth -= 1;
                    } else if u.is_punct(',') && depth == 0 {
                        if item_start < j {
                            walk(toks, item_start, j, &path, module, out);
                        }
                        item_start = j + 1;
                    }
                    j += 1;
                }
                return;
            }
            if t.is_punct('*') || t.is_punct(';') {
                return;
            }
            i += 1;
        }
    }
    fn push_seg(path: &mut Vec<String>, seg: &str, module: &str) {
        match seg {
            "crate" => {
                path.clear();
                if let Some(krate) = module.split("::").next() {
                    path.push(krate.to_string());
                }
            }
            "super" => {
                if path.is_empty() {
                    let mut mods: Vec<&str> = module.split("::").collect();
                    mods.pop();
                    path.extend(mods.iter().map(|s| s.to_string()));
                } else {
                    path.pop();
                }
            }
            "self" => {
                if path.is_empty() {
                    path.extend(module.split("::").map(str::to_string));
                }
            }
            _ => path.push(seg.to_string()),
        }
    }
    let end = toks
        .iter()
        .position(|t| t.is_punct(';'))
        .unwrap_or(toks.len());
    walk(toks, start, end, &[], module, out);
}

/// Parses `struct Name { field: Type, ... }` into (Name, field) → base
/// field type entries. Tuple and unit structs contribute nothing.
fn parse_struct_fields(toks: &[Token], start: usize, out: &mut HashMap<(String, String), String>) {
    let Some(name_tok) = toks.get(start).filter(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    let name = name_tok.text.clone();
    // First `{` at angle-depth zero opens the field block.
    let mut i = start + 1;
    let mut angle = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if t.is_punct('(') || t.is_punct(';') {
            return; // tuple or unit struct
        } else if t.is_punct('{') && angle <= 0 {
            break;
        }
        i += 1;
    }
    if i >= toks.len() {
        return;
    }
    let close = scan::close_of(toks, i);
    let mut j = i + 1;
    while j < close {
        // Skip attributes and visibility.
        while j < close && toks[j].is_punct('#') {
            if toks.get(j + 1).is_some_and(|t| t.is_punct('[')) {
                j = scan::close_of(toks, j + 1) + 1;
            } else {
                j += 1;
            }
        }
        if j < close && toks[j].is_ident("pub") {
            j += 1;
            if j < close && toks[j].is_punct('(') {
                j = scan::close_of(toks, j) + 1;
            }
        }
        let Some(field) = toks.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            break;
        };
        if !toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
            break;
        }
        // Type tokens run to the next comma at depth zero.
        let mut k = j + 2;
        let mut depth = 0i32;
        while k < close {
            let t = &toks[k];
            if t.is_punct('<') || t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct('>') || t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(',') && depth <= 0 {
                break;
            }
            k += 1;
        }
        if let Some(base) = base_type(&toks[j + 2..k]) {
            out.insert((name.clone(), field.text.clone()), base);
        }
        j = k + 1;
    }
}

/// First non-wrapper capitalized identifier of a type token stream.
fn base_type(toks: &[Token]) -> Option<String> {
    toks.iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .find(|t| {
            !TYPE_WRAPPERS.contains(&t.text.as_str())
                && t.text.chars().next().is_some_and(|c| c.is_uppercase())
        })
        .map(|t| t.text.clone())
}

/// Infers local-variable and parameter base types for one function.
fn local_types(node: &FnNode<'_>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    // Parameters: everything between the signature parens.
    let sig = &node.func.sig;
    if let Some(open) = sig.iter().position(|t| t.is_punct('(')) {
        let close = scan::close_of(sig, open);
        let mut j = open + 1;
        while j < close {
            // Parameter name: first ident before a `:` at depth 0.
            let mut depth = 0i32;
            let mut colon = None;
            let mut end = close;
            for k in j..close {
                let t = &sig[k];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    depth -= 1;
                } else if t.is_punct(':') && depth == 0 && colon.is_none() {
                    // `::` is two adjacent colons; skip path separators.
                    let sep = sig.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        || k > 0 && sig[k - 1].is_punct(':');
                    if !sep {
                        colon = Some(k);
                    }
                } else if t.is_punct(',') && depth == 0 {
                    end = k;
                    break;
                }
            }
            if let Some(c) = colon.filter(|&c| c < end) {
                let pname = sig[j..c]
                    .iter()
                    .rev()
                    .find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref");
                if let (Some(p), Some(ty)) = (pname, base_type(&sig[c + 1..end])) {
                    out.insert(p.text.clone(), ty);
                }
            }
            j = end + 1;
        }
    }
    if let Some(owner) = &node.owner {
        out.insert("self".to_string(), owner.clone());
    }
    // Let bindings.
    let body = &node.func.body;
    for i in 0..body.len() {
        if !body[i].is_ident("let") {
            continue;
        }
        let mut k = i + 1;
        if k < body.len() && body[k].is_ident("mut") {
            k += 1;
        }
        let Some(name) = body.get(k).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        let name = name.text.clone();
        // `let x: Type = ...`
        if body.get(k + 1).is_some_and(|t| t.is_punct(':'))
            && !body.get(k + 2).is_some_and(|t| t.is_punct(':'))
        {
            let stop = (k + 2..body.len())
                .find(|&j| body[j].is_punct('=') || body[j].is_punct(';'))
                .unwrap_or(body.len());
            if let Some(ty) = base_type(&body[k + 2..stop]) {
                out.insert(name, ty);
            }
            continue;
        }
        if !body.get(k + 1).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        // RHS forms: `Type::ctor(..)`, `Type { .. }`, or a state-guard
        // acquisition (`..state.read()` / `write_or_busy(..)` style
        // helpers are typed by their Guard-returning signature elsewhere).
        let mut r = k + 2;
        while r < body.len() && (body[r].is_punct('&') || body[r].is_ident("mut")) {
            r += 1;
        }
        if let Some(first) = body.get(r).filter(|t| t.kind == TokenKind::Ident) {
            let cap = first.text.chars().next().is_some_and(|c| c.is_uppercase());
            if cap
                && body.get(r + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(r + 2).is_some_and(|t| t.is_punct(':'))
            {
                out.insert(name.clone(), first.text.clone());
                continue;
            }
            if cap && body.get(r + 1).is_some_and(|t| t.is_punct('{')) {
                out.insert(name.clone(), first.text.clone());
                continue;
            }
        }
        // `let g = <state-ish>.read()/write()` binds a guard that derefs
        // to MoiraState.
        let stmt_end = scan::statement_end(body, k + 1);
        for mc in scan::method_calls(&body[r..stmt_end.min(body.len())]) {
            if (ACQUIRE_READ.contains(&mc.name) || ACQUIRE_WRITE.contains(&mc.name))
                && scan::receiver_idents(&body[r..stmt_end.min(body.len())], mc.idx)
                    .last()
                    .is_some_and(|l| STATE_RECV.contains(&l.as_str()))
            {
                out.insert(name.clone(), "MoiraState".to_string());
                break;
            }
        }
    }
    out
}

/// Extracts and resolves the call sites of one function body.
#[allow(clippy::too_many_arguments)]
fn extract_calls<'a>(
    node: &FnNode<'a>,
    module: &str,
    uses: &HashMap<String, Vec<String>>,
    local_types: &HashMap<String, String>,
    resolver: &Resolver<'_>,
    same_file: &[FnId],
    fns: &[FnNode<'a>],
    self_id: FnId,
    markers: &HashSet<u32>,
) -> Vec<CallSite> {
    let body = &node.func.body;
    let mut out = Vec::new();
    let marked = |line: u32| {
        markers.contains(&line)
            || markers.contains(&(line + 1))
            || (line > 0 && markers.contains(&(line - 1)))
    };

    for fc in scan::free_calls(body) {
        // Leading path segments (`a::b::name(`).
        let mut segs: Vec<String> = Vec::new();
        let mut i = fc.idx as isize - 1;
        while i >= 1 && body[i as usize].is_punct(':') && body[(i - 1) as usize].is_punct(':') {
            let j = i - 2;
            if j >= 0 && body[j as usize].kind == TokenKind::Ident {
                segs.push(body[j as usize].text.clone());
                i = j - 1;
            } else {
                break;
            }
        }
        segs.reverse();
        let targets = resolver.resolve_free(
            &segs,
            fc.name,
            module,
            node.owner.as_deref(),
            uses,
            same_file,
            fns,
            self_id,
        );
        out.push(CallSite {
            idx: fc.idx,
            close: scan::close_of(body, fc.idx + 1),
            line: fc.line,
            name: fc.name.to_string(),
            targets,
            marked: marked(fc.line),
            method: false,
        });
    }

    for mc in scan::method_calls(body) {
        let recv_type = receiver_type(body, mc.idx, local_types, resolver);
        let targets = resolver.resolve_method(recv_type.as_deref(), mc.name);
        out.push(CallSite {
            idx: mc.idx,
            close: scan::close_of(body, mc.idx + 2),
            line: mc.line,
            name: mc.name.to_string(),
            targets,
            marked: marked(mc.line),
            method: true,
        });
    }
    out.sort_by_key(|c| c.idx);
    out
}

/// Infers the base type of the receiver of the `.` at `dot_idx`, walking
/// the chain left-to-right through declared struct fields and
/// type-preserving passthrough methods.
fn receiver_type(
    body: &[Token],
    dot_idx: usize,
    local_types: &HashMap<String, String>,
    resolver: &Resolver<'_>,
) -> Option<String> {
    // Segment the chain: idents separated by `.`, rightmost at dot_idx.
    #[derive(PartialEq)]
    enum Seg {
        Field(String),
        Method(String),
    }
    let mut segs: Vec<Seg> = Vec::new();
    let mut i = dot_idx as isize - 1;
    while i >= 0 {
        let t = &body[i as usize];
        if t.is_punct(')') || t.is_punct(']') {
            let open = scan::open_of(body, i as usize)?;
            // The ident before the group is a method (or index) callee.
            if open >= 1 && body[open - 1].kind == TokenKind::Ident {
                segs.push(Seg::Method(body[open - 1].text.clone()));
                i = open as isize - 2;
                // Consume the separating `.` / `::` below.
                if i >= 0 && body[i as usize].is_punct('.') {
                    i -= 1;
                    continue;
                }
                if i >= 1 && body[i as usize].is_punct(':') && body[(i - 1) as usize].is_punct(':')
                {
                    i -= 2;
                    continue;
                }
                break;
            }
            return None;
        }
        if t.is_punct('?') {
            i -= 1;
            continue;
        }
        if t.kind == TokenKind::Ident {
            segs.push(Seg::Field(t.text.clone()));
            if i >= 1 && body[(i - 1) as usize].is_punct('.') {
                i -= 2;
                continue;
            }
            if i >= 2
                && body[(i - 1) as usize].is_punct(':')
                && body[(i - 2) as usize].is_punct(':')
            {
                // Path-qualified start (`Type::CONST.method()`): treat the
                // path head as the start segment.
                i -= 3;
                continue;
            }
            break;
        }
        break;
    }
    segs.reverse();
    let mut iter = segs.into_iter();
    let mut ty: String = match iter.next()? {
        Seg::Field(name) | Seg::Method(name) => {
            if let Some(t) = local_types.get(&name) {
                t.clone()
            } else if resolver.owned_types.contains(name.as_str())
                && name.chars().next().is_some_and(|c| c.is_uppercase())
            {
                // `Type::ctor(..).method()` — assume the ctor returns Self.
                name
            } else {
                return None;
            }
        }
    };
    for seg in iter {
        match seg {
            Seg::Field(f) => {
                ty = resolver.fields.get(&(ty.clone(), f)).cloned()?;
            }
            Seg::Method(m) => {
                if PASSTHROUGH_METHODS.contains(&m.as_str()) {
                    continue; // type-preserving
                }
                if ACQUIRE_READ.contains(&m.as_str()) || ACQUIRE_WRITE.contains(&m.as_str()) {
                    // Guard acquisition derefs to the protected payload.
                    if ty == "SharedState" || ty == "RwLock" || ty == "MoiraState" {
                        ty = "MoiraState".to_string();
                        continue;
                    }
                }
                return None; // unknown return type
            }
        }
    }
    Some(ty)
}

impl<'e> Resolver<'e> {
    /// Resolves a free (or path-qualified) call.
    #[allow(clippy::too_many_arguments)]
    fn resolve_free(
        &self,
        segs: &[String],
        name: &str,
        module: &str,
        owner: Option<&str>,
        uses: &HashMap<String, Vec<String>>,
        same_file: &[FnId],
        fns: &[FnNode<'_>],
        self_id: FnId,
    ) -> Vec<FnId> {
        if !segs.is_empty() {
            let last = segs.last().unwrap().as_str();
            // `Self::method(..)` / `Type::method(..)`.
            if last == "Self" {
                if let Some(own) = owner {
                    if let Some(ids) = self.methods_by_owner.get(&(own, name)) {
                        return ids.clone();
                    }
                }
                return Vec::new();
            }
            if last.chars().next().is_some_and(|c| c.is_uppercase()) {
                // Resolve a `use`-renamed type too (`use x::Y as Z`).
                let ty = uses
                    .get(last)
                    .and_then(|p| p.last())
                    .map(String::as_str)
                    .unwrap_or(last);
                return self
                    .methods_by_owner
                    .get(&(ty, name))
                    .cloned()
                    .unwrap_or_default();
            }
            // Module path: expand the head through imports / crate / super.
            let mut path: Vec<String> = Vec::new();
            for (n, seg) in segs.iter().enumerate() {
                match seg.as_str() {
                    "crate" => {
                        path.clear();
                        if let Some(k) = module.split("::").next() {
                            path.push(k.to_string());
                        }
                    }
                    "super" => {
                        if path.is_empty() {
                            let mut mods: Vec<&str> = module.split("::").collect();
                            mods.pop();
                            path.extend(mods.iter().map(|s| s.to_string()));
                        } else {
                            path.pop();
                        }
                    }
                    "self" => {
                        if path.is_empty() {
                            path.extend(module.split("::").map(str::to_string));
                        }
                    }
                    other => {
                        if n == 0 {
                            if let Some(full) = uses.get(other) {
                                path.extend(full.iter().cloned());
                                continue;
                            }
                        }
                        path.push(other.to_string());
                    }
                }
            }
            let joined = path.join("::");
            if let Some(&id) = self.free_by_path.get(&(joined.clone(), name)) {
                return vec![id];
            }
            // A one-segment path may name a sibling module of this file.
            if segs.len() == 1 {
                let sibling = format!("{module}::{}", segs[0]);
                if let Some(&id) = self.free_by_path.get(&(sibling, name)) {
                    return vec![id];
                }
            }
            return Vec::new();
        }
        // Bare name: same file first.
        if let Some(&id) = same_file
            .iter()
            .find(|&&id| !fns[id].in_test && fns[id].func.name == name && id != self_id)
        {
            // Same-file free fns and same-impl sibling methods both bind.
            let cand = &fns[id];
            if cand.owner.is_none() || cand.owner.as_deref() == owner {
                return vec![id];
            }
        }
        // Imported name.
        if let Some(full) = uses.get(name) {
            if full.len() >= 2 {
                let module_part = full[..full.len() - 1].join("::");
                let leaf = full.last().unwrap().as_str();
                if leaf == name {
                    if let Some(&id) = self.free_by_path.get(&(module_part, name)) {
                        return vec![id];
                    }
                }
            }
        }
        // Same-crate, then workspace-unique.
        if let Some(ids) = self.free_by_name.get(name) {
            let krate = module.split("::").next().unwrap_or("");
            let in_crate: Vec<FnId> = ids
                .iter()
                .copied()
                .filter(|&id| fns[id].module.split("::").next().unwrap_or("") == krate)
                .collect();
            if in_crate.len() == 1 {
                return in_crate;
            }
            if ids.len() == 1 {
                return ids.clone();
            }
        }
        Vec::new()
    }

    /// Resolves a method call from its receiver type (or by workspace-wide
    /// name uniqueness for names that cannot be confused with std).
    fn resolve_method(&self, recv_type: Option<&str>, name: &str) -> Vec<FnId> {
        if let Some(ty) = recv_type {
            return self
                .methods_by_owner
                .get(&(ty, name))
                .cloned()
                .unwrap_or_default();
        }
        if METHOD_DENYLIST.contains(&name) {
            return Vec::new();
        }
        // Accept a bare-name match only when every workspace definition of
        // the name lives on one type (or one trait plus its impls, which
        // share the name by construction — two distinct owners).
        match self.method_owner_counts.get(name) {
            Some(&count) if count <= 2 => {
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
            _ => Vec::new(),
        }
    }
}

/// Primitive effect sites in one function body.
fn prim_effects(
    node: &FnNode<'_>,
    local_types: &HashMap<String, String>,
    rel: &str,
) -> Vec<(Effect, u32, String)> {
    let body = &node.func.body;
    let mut out = Vec::new();

    // Guard acquisitions.
    for mc in scan::method_calls(body) {
        let is_read = ACQUIRE_READ.contains(&mc.name);
        let is_write = ACQUIRE_WRITE.contains(&mc.name);
        if is_read || is_write {
            let recv = scan::receiver_idents(body, mc.idx);
            let last = recv.last().map(String::as_str).unwrap_or("");
            if STATE_RECV.contains(&last) {
                let e = if is_read {
                    Effect::AcquiresRead
                } else {
                    Effect::AcquiresWrite
                };
                out.push((e, mc.line, format!("{last}.{}()", mc.name)));
            }
        }
        // Blocking methods.
        if BLOCKING.contains(&mc.name) {
            out.push((Effect::Blocks, mc.line, format!(".{}()", mc.name)));
        }
        if BLOCKING_NET.contains(&mc.name) {
            out.push((Effect::BlocksNet, mc.line, format!(".{}()", mc.name)));
        }
        // Blocking receive: `.recv()` on anything (try_recv is distinct).
        if mc.name == "recv" {
            out.push((Effect::Blocks, mc.line, ".recv()".to_string()));
        }
        // Reactor waits.
        if mc.name == "wait" {
            let recv = scan::receiver_idents(body, mc.idx);
            let last = recv.last().map(String::as_str).unwrap_or("");
            if WAIT_RECV.contains(&last) {
                out.push((Effect::Waits, mc.line, format!("{last}.wait()")));
            }
        } else if LOOP_WAITS.contains(&mc.name) {
            out.push((Effect::Waits, mc.line, format!(".{}()", mc.name)));
        }
        // Mutations through the journaled surface: receiver rooted at the
        // state / a db- or table-typed local / `self` inside the db types.
        if MUTATING.contains(&mc.name) {
            let recv = scan::receiver_idents(body, mc.idx);
            let root = recv.first().map(String::as_str).unwrap_or("");
            let root_ty = local_types.get(root).map(String::as_str);
            let rooted = root == "state"
                || root == "db"
                || recv.iter().any(|r| r == "db" || r == "table")
                || matches!(root_ty, Some("Database" | "Table" | "MoiraState"))
                || (root == "self"
                    && node
                        .owner
                        .as_deref()
                        .is_some_and(|o| MUTATING_OWNERS.contains(&o)));
            if rooted {
                out.push((Effect::Mutates, mc.line, format!(".{}()", mc.name)));
            }
        }
    }
    for fc in scan::free_calls(body) {
        if BLOCKING.contains(&fc.name) {
            out.push((Effect::Blocks, fc.line, format!("{}(...)", fc.name)));
        }
        if BLOCKING_NET.contains(&fc.name) {
            out.push((Effect::BlocksNet, fc.line, format!("{}(...)", fc.name)));
        }
    }
    // Blocking path prefixes (`std::fs::...`, `std::net::...`).
    for i in 0..body.len() {
        for (paths, effect) in [
            (BLOCKING_PATHS, Effect::Blocks),
            (NET_PATHS, Effect::BlocksNet),
        ] {
            for path in paths {
                if scan::path_starts(body, i, path)
                    && (i == 0 || !body[i - 1].is_punct(':'))
                    && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                {
                    out.push((effect, body[i].line, format!("{}::{}", path[0], path[1])));
                }
            }
        }
    }
    // The db-layer mutation primitives themselves.
    if MUTATING.contains(&node.func.name.as_str())
        && node
            .owner
            .as_deref()
            .is_some_and(|o| MUTATING_OWNERS.contains(&o))
    {
        out.push((
            Effect::Mutates,
            node.func.line,
            format!(
                "{}::{}",
                node.owner.as_deref().unwrap_or(""),
                node.func.name
            ),
        ));
    }
    // Whole-table scans — outside crates/db (the planner's own Scan arm is
    // the legitimate implementation of scanning, not a discipline breach).
    if !rel.starts_with("crates/db/src/") {
        let locals = table_locals(body);
        for mc in scan::method_calls(body) {
            if mc.name == "iter" {
                let recv = scan::receiver_idents(body, mc.idx);
                if recv.iter().any(|r| r == "table")
                    || recv.first().is_some_and(|r| locals.contains(r.as_str()))
                {
                    out.push((Effect::Scans, mc.line, ".table(..).iter()".to_string()));
                }
            }
        }
        for i in 0..body.len() {
            if scan::path_starts(body, i, &["Pred", "True"]) {
                out.push((Effect::Scans, body[i].line, "Pred::True".to_string()));
            }
        }
    }
    out
}

/// True when the `.name(` method call at `dot_idx` is a state-guard
/// acquisition (`state.read()` / `shared.try_write()` / ...). Shared with
/// the passes so the primitive definition lives in one place.
pub fn is_state_acquire(body: &[Token], dot_idx: usize, name: &str) -> bool {
    (ACQUIRE_READ.contains(&name) || ACQUIRE_WRITE.contains(&name))
        && scan::receiver_idents(body, dot_idx)
            .last()
            .is_some_and(|l| STATE_RECV.contains(&l.as_str()))
}

/// Direct blocking-primitive sites in a body, both hard-blocking and
/// network classes: (token index, line, description). Used by the passes
/// to point diagnostics at the exact in-body token.
pub fn blocking_prim_sites(body: &[Token]) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for mc in scan::method_calls(body) {
        if BLOCKING.contains(&mc.name) || BLOCKING_NET.contains(&mc.name) || mc.name == "recv" {
            out.push((mc.idx, mc.line, format!(".{}()", mc.name)));
        }
    }
    for fc in scan::free_calls(body) {
        if BLOCKING.contains(&fc.name) || BLOCKING_NET.contains(&fc.name) {
            out.push((fc.idx, fc.line, format!("{}(...)", fc.name)));
        }
    }
    for i in 0..body.len() {
        for path in BLOCKING_PATHS.iter().chain(NET_PATHS) {
            if scan::path_starts(body, i, path)
                && (i == 0 || !body[i - 1].is_punct(':'))
                && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
            {
                out.push((i, body[i].line, format!("{}::{}", path[0], path[1])));
            }
        }
    }
    out
}

/// Hard-blocking (non-network) primitive sites only — the reactor wait
/// path tolerates non-blocking socket calls but nothing that sleeps.
pub fn hard_blocking_prim_sites(body: &[Token]) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for mc in scan::method_calls(body) {
        if BLOCKING.contains(&mc.name) || mc.name == "recv" {
            out.push((mc.idx, mc.line, format!(".{}()", mc.name)));
        }
    }
    for fc in scan::free_calls(body) {
        if BLOCKING.contains(&fc.name) {
            out.push((fc.idx, fc.line, format!("{}(...)", fc.name)));
        }
    }
    for i in 0..body.len() {
        for path in BLOCKING_PATHS {
            if scan::path_starts(body, i, path)
                && (i == 0 || !body[i - 1].is_punct(':'))
                && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
            {
                out.push((i, body[i].line, format!("{}::{}", path[0], path[1])));
            }
        }
    }
    out
}

/// Reactor-wait sites in a body: `reactor.wait(..)` / `poller.wait(..)`
/// plus calls to the loop entry points that contain the wait.
pub fn wait_prim_sites(body: &[Token]) -> Vec<(usize, u32, String)> {
    let mut out = Vec::new();
    for mc in scan::method_calls(body) {
        if mc.name == "wait" {
            let recv = scan::receiver_idents(body, mc.idx);
            let last = recv.last().map(String::as_str).unwrap_or("");
            if WAIT_RECV.contains(&last) {
                out.push((mc.idx, mc.line, format!("{last}.wait()")));
            }
        } else if LOOP_WAITS.contains(&mc.name) {
            out.push((mc.idx, mc.line, format!(".{}()", mc.name)));
        }
    }
    out
}

/// Local names bound from `..table(..)` calls.
fn table_locals(body: &[Token]) -> HashSet<String> {
    let mut out = HashSet::new();
    for i in 0..body.len() {
        if !body[i].is_ident("let") {
            continue;
        }
        let mut k = i + 1;
        if k < body.len() && body[k].is_ident("mut") {
            k += 1;
        }
        if k + 1 >= body.len() || body[k].kind != TokenKind::Ident || !body[k + 1].is_punct('=') {
            continue;
        }
        let end = scan::statement_end(body, k + 1);
        let rhs = &body[k + 2..end.min(body.len())];
        let is_table_call = rhs
            .iter()
            .zip(rhs.iter().skip(1))
            .any(|(a, b)| a.is_punct('.') && b.is_ident("table"))
            || rhs.first().is_some_and(|t| t.is_ident("table"));
        if is_table_call {
            out.insert(body[k].text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_of(sources: &[(&str, &str)]) -> (Workspace, Vec<String>) {
        let ws = Workspace::from_sources(sources).expect("parse");
        let rels: Vec<String> = ws.files.iter().map(|f| f.rel.clone()).collect();
        (ws, rels)
    }

    fn fn_id(e: &Engine<'_>, rels: &[String], rel: &str, name: &str) -> FnId {
        let fi = rels.iter().position(|r| r == rel).expect("file");
        e.fn_in_file(fi, name).expect("fn")
    }

    #[test]
    fn cross_module_free_call_via_use_import() {
        let (ws, rels) = engine_of(&[
            (
                "crates/core/src/helpers.rs",
                "pub fn nap(d: Duration) { std::thread::sleep(d); }\n",
            ),
            (
                "crates/core/src/server.rs",
                "use crate::helpers::nap;\n\
                 pub fn outer(state: &SharedState) {\n\
                     let g = state.read();\n\
                     nap(d);\n\
                 }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let outer = fn_id(&e, &rels, "crates/core/src/server.rs", "outer");
        assert!(e.effects(outer).has(Effect::AcquiresRead));
        assert!(
            e.effects(outer).has(Effect::Blocks),
            "Blocks must propagate"
        );
        let (hops, what) = e.chain(outer, Effect::Blocks);
        assert_eq!(hops.len(), 2, "chain {hops:?}");
        assert_eq!(hops[0], ("crates/core/src/server.rs".to_string(), 4));
        assert_eq!(hops[1], ("crates/core/src/helpers.rs".to_string(), 1));
        assert!(what.contains("sleep"), "prim description: {what}");
    }

    #[test]
    fn method_resolution_through_declared_field_type() {
        let (ws, rels) = engine_of(&[
            (
                "crates/core/src/state.rs",
                "pub struct MoiraState { pub db: Database }\n",
            ),
            (
                "crates/db/src/lib.rs",
                "pub struct Database { rows: Vec<Row> }\n\
                 impl Database {\n\
                     pub fn append(&mut self, r: Row) { self.rows.push(r); }\n\
                 }\n",
            ),
            (
                "crates/core/src/write.rs",
                "pub fn add_user(state: &mut MoiraState, row: Row) {\n\
                     state.db.append(row);\n\
                 }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let add = fn_id(&e, &rels, "crates/core/src/write.rs", "add_user");
        let append = fn_id(&e, &rels, "crates/db/src/lib.rs", "append");
        let call = e
            .calls(add)
            .iter()
            .find(|c| c.name == "append")
            .expect("call site");
        assert_eq!(call.targets, vec![append], "typed receiver must resolve");
        assert!(e.effects(add).has(Effect::Mutates));
    }

    #[test]
    fn two_hop_chain_spans_three_files() {
        let (ws, rels) = engine_of(&[
            (
                "crates/core/src/a.rs",
                "use crate::b::middle;\n\
                 pub fn top(state: &SharedState) {\n\
                     let g = state.write();\n\
                     middle();\n\
                 }\n",
            ),
            (
                "crates/core/src/b.rs",
                "use crate::c::leaf;\n\
                 pub fn middle() { leaf(); }\n",
            ),
            (
                "crates/core/src/c.rs",
                "pub fn leaf() { std::thread::sleep(ms); }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let top = fn_id(&e, &rels, "crates/core/src/a.rs", "top");
        assert!(e.effects(top).has(Effect::AcquiresWrite));
        assert!(e.effects(top).has(Effect::Blocks));
        let (hops, _) = e.chain(top, Effect::Blocks);
        let files: Vec<&str> = hops.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(
            files,
            vec![
                "crates/core/src/a.rs",
                "crates/core/src/b.rs",
                "crates/core/src/c.rs"
            ]
        );
    }

    #[test]
    fn recursive_helper_cycle_terminates_and_propagates() {
        let (ws, rels) = engine_of(&[(
            "crates/core/src/rec.rs",
            "pub fn ping(n: u32) { if n > 0 { pong(n); } }\n\
             pub fn pong(n: u32) {\n\
                 std::thread::sleep(ms);\n\
                 ping(n - 1);\n\
             }\n",
        )]);
        let e = Engine::build(&ws);
        let ping = fn_id(&e, &rels, "crates/core/src/rec.rs", "ping");
        let pong = fn_id(&e, &rels, "crates/core/src/rec.rs", "pong");
        assert!(e.effects(ping).has(Effect::Blocks));
        assert!(e.effects(pong).has(Effect::Blocks));
        let (hops, _) = e.chain(ping, Effect::Blocks);
        assert!(hops.len() <= 3, "cycle chain must terminate: {hops:?}");
    }

    #[test]
    fn marked_fallback_edge_stops_scan_propagation() {
        let (ws, rels) = engine_of(&[
            (
                "crates/dcm/src/helpers.rs",
                "pub fn rebuild_rows(state: &MoiraState) {\n\
                     for row in state.db.table(\"users\").iter() { emit(row); }\n\
                 }\n",
            ),
            (
                "crates/dcm/src/gen.rs",
                "use crate::helpers::rebuild_rows;\n\
                 pub fn fragment(state: &MoiraState) {\n\
                     rebuild_rows(state);\n\
                 }\n\
                 pub fn fallback(state: &MoiraState) {\n\
                     // full-rebuild fallback: bounded by snapshot cadence\n\
                     rebuild_rows(state);\n\
                 }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let frag = fn_id(&e, &rels, "crates/dcm/src/gen.rs", "fragment");
        let fall = fn_id(&e, &rels, "crates/dcm/src/gen.rs", "fallback");
        assert!(
            e.effects(frag).has(Effect::Scans),
            "unmarked call propagates"
        );
        assert!(
            !e.effects(fall).has(Effect::Scans),
            "marked fallback edge must not propagate Scans"
        );
    }

    #[test]
    fn ubiquitous_method_names_do_not_link_without_types() {
        let (ws, rels) = engine_of(&[
            (
                "crates/db/src/lib.rs",
                "pub struct Table { rows: Vec<Row> }\n\
                 impl Table {\n\
                     pub fn iter(&self) -> RowIter<'_> { RowIter { t: self } }\n\
                 }\n",
            ),
            (
                "crates/core/src/q.rs",
                "pub fn names(xs: &[String]) -> Vec<String> {\n\
                     xs.iter().cloned().collect()\n\
                 }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let names = fn_id(&e, &rels, "crates/core/src/q.rs", "names");
        let call = e
            .calls(names)
            .iter()
            .find(|c| c.name == "iter")
            .expect("site");
        assert!(
            call.targets.is_empty(),
            "slice .iter() must not resolve to Table::iter"
        );
    }

    #[test]
    fn trait_method_dispatch_reaches_impls() {
        let (ws, rels) = engine_of(&[
            (
                "crates/db/src/storage.rs",
                "pub trait Storage {\n\
                     fn persist(&mut self, bytes: &[u8]);\n\
                 }\n\
                 pub struct DurableEngine { f: File }\n\
                 impl Storage for DurableEngine {\n\
                     fn persist(&mut self, bytes: &[u8]) { self.f.sync_all(); }\n\
                 }\n",
            ),
            (
                "crates/core/src/state.rs",
                "pub struct MoiraState { pub storage: Box<dyn Storage> }\n\
                 pub fn commit(state: &mut MoiraState, b: &[u8]) {\n\
                     state.storage.persist(b);\n\
                 }\n",
            ),
        ]);
        let e = Engine::build(&ws);
        let commit = fn_id(&e, &rels, "crates/core/src/state.rs", "commit");
        assert!(
            e.effects(commit).has(Effect::Blocks),
            "dyn Storage::persist must reach the fsync in DurableEngine"
        );
    }

    #[test]
    fn module_paths_derive_from_file_layout() {
        assert_eq!(module_of("crates/db/src/lock.rs"), "moira_db::lock");
        assert_eq!(module_of("crates/core/src/lib.rs"), "moira_core");
        assert_eq!(
            module_of("crates/dcm/src/generators/mod.rs"),
            "moira_dcm::generators"
        );
        assert_eq!(
            module_of("crates/dcm/src/generators/hesiod.rs"),
            "moira_dcm::generators::hesiod"
        );
    }
}
