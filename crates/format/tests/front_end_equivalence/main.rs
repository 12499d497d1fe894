//! Differential suite for the `.cpn` front end.
//!
//! The reference is the former owned-token lexer and parser, kept
//! unchanged in `lexer.rs` and `parser.rs` next to this file; it shares
//! no code with `cpn_format`'s front end. On every input, `parse`,
//! `parse_with_limits` and `parse_lib_with_limits` must give what the
//! reference gives: equal documents (nets `==`, the same `NetId`, the
//! same written text, the same interner order), or an equal
//! `ParseError` (message, line and kind).
//!
//! Inputs are net, STG and `.cpnlib` documents written by `cpn_format`,
//! respelled with comments, CRLF, tabs, non-ASCII whitespace and
//! identifiers and extra escapes, then corrupted by `DocMutator` (every
//! `MutationKind`), each parsed under the default `ParseLimits` and
//! under tight ones. Replay a failure with `CPN_TESTKIT_SEED=<seed>`.

#[allow(dead_code)]
mod lexer;
#[allow(dead_code)]
mod parser;

use cpn_format::{
    parse, parse_lib, parse_lib_with_limits, parse_with_limits, write_lib, write_net, write_stg,
    LibDocument, LibInstance, LibModule, ParseError, ParseLimits,
};
use cpn_petri::{Label, PetriNet, TransitionId};
use cpn_stg::{Guard, Signal, SignalDir, Stg};
use cpn_testkit::{
    check_with, usize_in, Config, DocMutator, MutationKind, NetStrategy, PropFail, PropResult,
    RawNet, RawStg, StgStrategy, TestRng,
};
use std::collections::{BTreeMap, BTreeSet};

/// Labels with quotes, backslashes, braces, comment markers, tabs,
/// non-ASCII text and the empty label.
const LABELS: [&str; 9] = [
    "alpha",
    "say \"hi\"",
    "back\\slash",
    "{brace}",
    "// not a comment",
    "tab\there",
    "ünï cödé ✓",
    "",
    "beta",
];

/// Place-name stems: ASCII, non-ASCII letters, primes, dots, parens.
const PLACE_STEMS: [&str; 7] = ["p", "þ", "π", "x′", "Жж", "q.r", "(a,b)"];

/// Signal names of generated STGs, one input then three outputs.
const SIGNALS: [&str; 4] = ["DATA", "σ0", "ä1", "s′2"];

/// Item names (sanitized by the writers, so identifiers).
const NAMES: [&str; 4] = ["n", "módulo", "сеть", "x.y"];

/// One of `xs`, chosen by `rng`.
fn pick<'a>(rng: &mut TestRng, xs: &[&'a str]) -> &'a str {
    xs[rng.below(xs.len())]
}

fn config() -> Config {
    Config::from_env()
}

fn build_net(raw: &RawNet, rng: &mut TestRng) -> PetriNet<String> {
    let stem = pick(rng, &PLACE_STEMS);
    let mut net: PetriNet<String> = PetriNet::new();
    let ps: Vec<_> = (0..raw.places)
        .map(|i| net.add_place(format!("{stem}{i}")))
        .collect();
    // A declared label no transition carries: the `symbols` section.
    if rng.gen_bool() {
        net.declare_label(pick(rng, &LABELS).to_owned());
    }
    for t in &raw.transitions {
        net.add_transition(
            t.pre.iter().map(|&i| ps[i]),
            LABELS[t.label % LABELS.len()].to_owned(),
            t.post.iter().map(|&i| ps[i]),
        )
        .expect("generated transitions are valid");
    }
    for (i, &m) in raw.marking.iter().enumerate() {
        net.set_initial(ps[i], m);
    }
    net
}

fn build_stg(raw: &RawStg) -> Stg {
    let mut stg = Stg::new();
    let data = stg.add_signal(SIGNALS[0], SignalDir::Input);
    let outputs: Vec<Signal> = SIGNALS[1..]
        .iter()
        .map(|s| stg.add_signal(*s, SignalDir::Output))
        .collect();
    let ps: Vec<_> = (0..raw.net.places)
        .map(|i| stg.add_place(format!("ρ{i}")))
        .collect();
    for (i, t) in raw.net.transitions.iter().enumerate() {
        let pre = t.pre.iter().map(|&x| ps[x]);
        let post = t.post.iter().map(|&x| ps[x]);
        let tid = if (t.label + i) % 4 == 3 {
            stg.add_dummy(pre, post)
        } else {
            let edge = cpn_testkit::stg_gen::edge_of(raw.edges[i % raw.edges.len()]);
            stg.add_signal_transition(pre, (outputs[t.label % 3].clone(), edge), post)
        }
        .expect("generated transitions are valid");
        if raw.guard_on && i % 2 == 0 {
            let guard = Guard::new()
                .require(data.clone(), i % 4 == 0)
                .require(outputs[0].clone(), true);
            stg.set_guard(tid, guard);
        }
    }
    for (i, &m) in raw.net.marking.iter().enumerate() {
        stg.set_initial(ps[i], m);
    }
    stg
}

fn build_lib(raw: &RawNet, rng: &mut TestRng) -> LibDocument {
    let mut lib = LibDocument::default();
    for i in 0..1 + rng.below(2) {
        let net = build_net(raw, rng);
        let labels: Vec<String> = net.alphabet().into_iter().collect();
        let split = rng.below(labels.len() + 1);
        lib.modules.push(LibModule {
            name: format!("{}{i}", pick(rng, &NAMES)),
            inputs: labels[..split].to_vec(),
            outputs: labels[split..].to_vec(),
            net,
        });
    }
    for i in 0..rng.below(3) {
        let rename: BTreeMap<String, String> = (0..rng.below(3))
            .map(|k| {
                (
                    pick(rng, &LABELS).to_owned(),
                    format!("{}{k}", pick(rng, &LABELS)),
                )
            })
            .collect();
        lib.instances.push(LibInstance {
            name: format!("inst{i}"),
            module: lib.modules[0].name.clone(),
            rename,
        });
    }
    lib
}

/// The same document in another spelling: whitespace between tokens
/// becomes tabs, runs, non-ASCII whitespace or comments, line breaks
/// become CRLF or gain comments, and characters inside string literals
/// are written as escapes. The token stream is unchanged.
fn respell(text: &str, rng: &mut TestRng) -> String {
    const SPACES: [&str; 8] = [
        " ",
        "\t",
        "  ",
        "\u{a0}",
        "\u{2028}",
        "\u{85}",
        "\u{3000}",
        " \u{2029}\u{200a}",
    ];
    const BREAKS: [&str; 5] = [
        "\n",
        "\r\n",
        " // ünï \"quoted\" { } \\ ✓\n",
        "\n// a whole comment line\r\n",
        "\u{2028}\n\t",
    ];
    let mut out = String::with_capacity(text.len() * 2);
    let mut in_string = false;
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                in_string = !in_string;
                out.push(c);
            }
            '\\' if in_string => {
                out.push(c);
                out.extend(chars.next());
            }
            _ if in_string => {
                if rng.below(4) == 0 {
                    out.push('\\');
                }
                out.push(c);
            }
            ' ' => out.push_str(pick(rng, &SPACES)),
            '\n' => out.push_str(pick(rng, &BREAKS)),
            _ => out.push(c),
        }
    }
    out
}

fn fail(what: &str, text: &str, detail: String) -> PropResult {
    Err(PropFail::Fail(format!(
        "{what}: {detail}\n--- document ({} bytes) ---\n{}",
        text.len(),
        text.escape_debug()
    )))
}

fn same_error(new: &ParseError, reference: &parser::ParseError) -> Result<(), String> {
    let kinds = (format!("{:?}", new.kind), format!("{:?}", reference.kind));
    if new.message == reference.message && new.line == reference.line && kinds.0 == kinds.1 {
        Ok(())
    } else {
        Err(format!(
            "errors differ: new {:?} line {} {:?}, reference {:?} line {} {:?}",
            new.message, new.line, new.kind, reference.message, reference.line, reference.kind
        ))
    }
}

fn interned<L: Label>(net: &PetriNet<L>) -> Vec<L> {
    net.interner().iter().map(|(_, l)| l.clone()).collect()
}

fn same_net(
    name: &str,
    new: &PetriNet<String>,
    reference: &PetriNet<String>,
) -> Result<(), String> {
    if new != reference {
        return Err(format!("net `{name}` differs"));
    }
    if new.net_id() != reference.net_id() {
        return Err(format!("net `{name}` has another NetId"));
    }
    if write_net(name, new) != write_net(name, reference) {
        return Err(format!("net `{name}` writes other text"));
    }
    if interned(new) != interned(reference) {
        return Err(format!("net `{name}` interned its labels in another order"));
    }
    Ok(())
}

fn same_stg(name: &str, new: &Stg, reference: &Stg) -> Result<(), String> {
    let (n, r) = (new.net(), reference.net());
    let guards = |stg: &Stg| -> Vec<Guard> {
        stg.net()
            .transition_ids()
            .map(|t: TransitionId| stg.guard(t).clone())
            .collect()
    };
    if n != r
        || n.net_id() != r.net_id()
        || interned(n) != interned(r)
        || new.signals() != reference.signals()
        || guards(new) != guards(reference)
        || write_stg(name, new) != write_stg(name, reference)
    {
        return Err(format!("stg `{name}` differs"));
    }
    Ok(())
}

fn same_document(new: &cpn_format::Document, reference: &parser::Document) -> Result<(), String> {
    if new.nets.len() != reference.nets.len() || new.stgs.len() != reference.stgs.len() {
        return Err("item counts differ".to_owned());
    }
    for ((name, net), (ref_name, ref_net)) in new.nets.iter().zip(&reference.nets) {
        if name != ref_name {
            return Err(format!("net names differ: {name:?} vs {ref_name:?}"));
        }
        same_net(name, net, ref_net)?;
    }
    for ((name, stg), (ref_name, ref_stg)) in new.stgs.iter().zip(&reference.stgs) {
        if name != ref_name {
            return Err(format!("stg names differ: {name:?} vs {ref_name:?}"));
        }
        same_stg(name, stg, ref_stg)?;
    }
    Ok(())
}

fn same_lib(new: &LibDocument, reference: &parser::LibDocument) -> Result<(), String> {
    if new.modules.len() != reference.modules.len()
        || new.instances.len() != reference.instances.len()
    {
        return Err("item counts differ".to_owned());
    }
    for (m, r) in new.modules.iter().zip(&reference.modules) {
        if m.name != r.name || m.inputs != r.inputs || m.outputs != r.outputs {
            return Err(format!("module `{}` differs in its interface", m.name));
        }
        same_net(&m.name, &m.net, &r.net)?;
    }
    for (i, r) in new.instances.iter().zip(&reference.instances) {
        if i.name != r.name || i.module != r.module || i.rename != r.rename {
            return Err(format!("instance `{}` differs", i.name));
        }
    }
    if write_lib(new) != write_lib(&to_new_lib(reference)) {
        return Err("library writes other text".to_owned());
    }
    Ok(())
}

/// The reference's library in `cpn_format`'s types, for the writer.
fn to_new_lib(reference: &parser::LibDocument) -> LibDocument {
    LibDocument {
        modules: reference
            .modules
            .iter()
            .map(|m| LibModule {
                name: m.name.clone(),
                inputs: m.inputs.clone(),
                outputs: m.outputs.clone(),
                net: m.net.clone(),
            })
            .collect(),
        instances: reference
            .instances
            .iter()
            .map(|i| LibInstance {
                name: i.name.clone(),
                module: i.module.clone(),
                rename: i.rename.clone(),
            })
            .collect(),
    }
}

fn reference_limits(limits: &ParseLimits) -> parser::ParseLimits {
    parser::ParseLimits {
        max_input_bytes: limits.max_input_bytes,
        max_tokens: limits.max_tokens,
        max_depth: limits.max_depth,
    }
}

/// Both document parsers on `text` under `limits`.
fn compare_net_parse(text: &str, limits: &ParseLimits) -> Result<(), String> {
    let new = parse_with_limits(text, limits);
    let reference = parser::parse_with_limits(text, &reference_limits(limits));
    match (&new, &reference) {
        (Ok(n), Ok(r)) => same_document(n, r),
        (Err(n), Err(r)) => same_error(n, r),
        (Ok(_), Err(r)) => Err(format!("only the reference fails: {r}")),
        (Err(n), Ok(_)) => Err(format!("only the new parser fails: {n}")),
    }
}

/// Both library parsers on `text` under `limits`.
fn compare_lib_parse(text: &str, limits: &ParseLimits) -> Result<(), String> {
    let new = parse_lib_with_limits(text, limits);
    let reference = parser::parse_lib_with_limits(text, &reference_limits(limits));
    match (&new, &reference) {
        (Ok(n), Ok(r)) => same_lib(n, r),
        (Err(n), Err(r)) => same_error(n, r),
        (Ok(_), Err(r)) => Err(format!("only the reference fails: {r}")),
        (Err(n), Ok(_)) => Err(format!("only the new parser fails: {n}")),
    }
}

/// `parse` and `parse_lib` (default limits), then both under a tight
/// set of limits around the document's own size, tokens and depth.
fn compare_all(text: &str, rng: &mut TestRng) -> Result<(), String> {
    let default = |r: Result<(), String>| r.map_err(|e| format!("default limits: {e}"));
    default(match (parse(text), parser::parse(text)) {
        (Ok(n), Ok(r)) => same_document(&n, &r),
        (Err(n), Err(r)) => same_error(&n, &r),
        (n, r) => Err(format!("outcomes differ: {:?} vs {:?}", n.err(), r.err())),
    })?;
    default(match (parse_lib(text), parser::parse_lib(text)) {
        (Ok(n), Ok(r)) => same_lib(&n, &r),
        (Err(n), Err(r)) => same_error(&n, &r),
        (n, r) => Err(format!("outcomes differ: {:?} vs {:?}", n.err(), r.err())),
    })?;
    let tokens = lexer::lex(text).map_or(0, |t| t.len());
    let near = |rng: &mut TestRng, n: usize| n.saturating_sub(rng.below(3)) + rng.below(2);
    let tight = [
        ParseLimits {
            max_input_bytes: near(rng, text.len()),
            max_tokens: near(rng, tokens),
            max_depth: 1 + rng.below(3),
        },
        ParseLimits {
            max_input_bytes: 512,
            max_tokens: 256,
            max_depth: 8,
        },
    ];
    for limits in &tight {
        let at = |r: Result<(), String>| r.map_err(|e| format!("{limits:?}: {e}"));
        at(compare_net_parse(text, limits))?;
        at(compare_lib_parse(text, limits))?;
    }
    Ok(())
}

/// A generated document: nets, a net and an STG, or a module library.
fn document(kind: usize, raw: &RawNet, raw_stg: &RawStg, rng: &mut TestRng) -> String {
    match kind {
        0 => {
            let a = build_net(raw, rng);
            let b = build_net(raw, rng);
            format!(
                "{}\n{}",
                write_net(pick(rng, &NAMES), &a),
                write_net("env", &b)
            )
        }
        1 => format!(
            "{}\n{}",
            write_net(pick(rng, &NAMES), &build_net(raw, rng)),
            write_stg(pick(rng, &NAMES), &build_stg(raw_stg))
        ),
        _ => write_lib(&build_lib(raw, rng)),
    }
}

#[test]
fn new_front_end_matches_the_reference() {
    let strategy = (
        usize_in(0..3),
        NetStrategy::new(6, 7, LABELS.len()).max_tokens(3),
        StgStrategy::new(5, 6),
        usize_in(0..1 << 48),
    );
    check_with(
        "new_front_end_matches_the_reference",
        &config(),
        &strategy,
        |(kind, raw, raw_stg, seed)| {
            let mut rng = TestRng::seed_from_u64(*seed as u64);
            let written = document(*kind, raw, raw_stg, &mut rng);
            let respelled = respell(&written, &mut rng);
            for text in [&written, &respelled] {
                if let Err(e) = compare_all(text, &mut rng) {
                    return fail("well-formed document", text, e);
                }
                let parsed = if *kind < 2 {
                    parse(text).map(drop)
                } else {
                    parse_lib(text).map(drop)
                };
                if let Err(e) = parsed {
                    return fail("well-formed document", text, format!("rejected: {e}"));
                }
            }
            let mut mutator = DocMutator::new(respelled.clone(), rng.next_u64());
            for _ in 0..4 {
                let mutant = mutator.next_mutant();
                if let Err(e) = compare_all(&mutant.text, &mut rng) {
                    return fail(&format!("{:?} mutant", mutant.kind), &mutant.text, e);
                }
            }
            Ok(())
        },
    );
}

/// Every mutation kind, on each kind of document, in a fixed stream.
#[test]
fn every_mutation_kind_matches_the_reference() {
    let mut rng = TestRng::seed_from_u64(0x00C0_FFEE_2026);
    let strategy = (
        NetStrategy::new(5, 6, LABELS.len()).max_tokens(2),
        StgStrategy::new(4, 5),
    );
    let mut seen = BTreeSet::new();
    for case in 0..24 {
        let (raw, raw_stg) = cpn_testkit::Strategy::generate(&strategy, &mut rng);
        let text = respell(&document(case % 3, &raw, &raw_stg, &mut rng), &mut rng);
        let mut mutator = DocMutator::new(text, rng.next_u64());
        for _ in 0..10 {
            let mutant = mutator.next_mutant();
            seen.insert(format!("{:?}", mutant.kind));
            if let Err(e) = compare_all(&mutant.text, &mut rng) {
                panic!(
                    "case {case}, {:?} mutant: {e}\n{}",
                    mutant.kind,
                    mutant.text.escape_debug()
                );
            }
        }
    }
    let kinds = [
        MutationKind::Truncated,
        MutationKind::ByteFlipped,
        MutationKind::GarbageSpliced,
        MutationKind::ChunkDoubled,
        MutationKind::BraceFlood,
    ];
    for kind in kinds {
        assert!(seen.contains(&format!("{kind:?}")), "no {kind:?} mutant");
    }
}

/// Hand-picked inputs at the edges: escapes at the end of the input,
/// multi-byte characters after a backslash, whitespace that is not a
/// line break, numbers at the `u32` boundary, repeated places and
/// sections cut short.
#[test]
fn edge_cases_match_the_reference() {
    let cases = [
        "",
        "\"",
        "\"\\",
        "\"\\é",
        "\"\\é\"",
        "net n { places { p* } transition \"a\\\nb\" { pre: p; post: p } }\n x",
        "net n { places { p*4294967295 } }",
        "net n { places { p*4294967296 } }",
        "net n { places { p*007 q*0 } }",
        "net 0n { }",
        "net n\u{0b}{\u{0c}places { p } }",
        "net n {\u{1c} places { p } }",
        "net n { places { é′ é } } @",
        "net n { places { a } } /",
        "net n { places { a } } //",
        "net n { places { a } } /x",
        "stg s { input a; places { p* } transition a+ { pre: p; post: p } guard { a=2 } }",
        "stg s { input a; places { p* } transition a{ { pre: p; post: p } }",
        "stg s { input a a; places { p* } }",
        "module m { net { places { p } transition \"x\" { pre: ; post: } } }",
        "instance i of m { rename { \"a\" = \"b\" \"a\" = \"c\" } }",
        "net n { places { p } symbols { \"a\" x } }",
        "{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{{",
        "net \u{301}n { }",
        // Places: repeats, cut-off sections, and sections that are not
        // there, around the room reserved for them.
        "net n { places { p q p 7 } }",
        "net n { places { p 7 p } }",
        "net n { places",
        "net n { places {",
        "net n { places { p q",
        "net n { x y z { p } }",
        "net n { places { p } symbols {",
        "net n { places { p } symbols { \"a\" \"b\"",
        "net n { places { p } symbols { \"a\" \"a\" x } }",
        "stg s { output x; places { p p } }",
    ];
    let mut rng = TestRng::seed_from_u64(7);
    for text in cases {
        if let Err(e) = compare_all(text, &mut rng) {
            panic!("{text:?}: {e}");
        }
    }
}
