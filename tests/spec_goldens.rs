//! Golden pins for the specification back end.
//!
//! For four programs (the paper's §3.4 list example, `subset_lists(4)`,
//! `binary_counter(5)` and `ring_planner(6)`) this pins, for both the
//! Algorithm Q specification and its minimized quotient: the cluster and
//! edge counts, the number of equations of the derived equational
//! specification, the `render` and `render_equations` output, and the
//! text and binary `.fspec` bytes. Large outputs are pinned by length and
//! FNV-1a hash; the list example's rendering is pinned verbatim.
//!
//! Every specification is also checked with `GraphSpec::validate` and read
//! back from both file formats.
//!
//! To print the current values (e.g. after an intended output change):
//! `cargo test -p fundb-bench --test spec_goldens -- --nocapture`.

use fundb_bench::{binary_counter, ring_planner, subset_lists};
use fundb_core::{read_spec, read_spec_binary, write_spec, write_spec_binary, EqSpec, SpecBundle};
use fundb_parser::Workspace;

/// FNV-1a, 64 bit: a stable fingerprint of a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything pinned about one specification.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    clusters: usize,
    edges: usize,
    equations: usize,
    render: (usize, u64),
    render_equations: (usize, u64),
    text: (usize, u64),
    binary: (usize, u64),
}

fn fingerprint(s: &[u8]) -> (usize, u64) {
    (s.len(), fnv(s))
}

/// Pins one specification and checks that it validates and reads back
/// from both file formats to the same bytes.
fn pin(ws: &mut Workspace, bundle: SpecBundle) -> Pin {
    bundle
        .spec
        .validate()
        .expect("a built specification validates");
    let eq = EqSpec::from_graph(&bundle.spec);
    let text = write_spec(&bundle, &ws.interner).unwrap();
    let binary = write_spec_binary(&bundle, &ws.interner);
    let render = bundle.spec.render(&ws.interner);
    // Reading re-interns the slice atoms, so a re-read file need not write
    // back byte for byte; it must validate and render the same.
    let from_text = read_spec(&text, &mut ws.interner).unwrap();
    from_text.spec.validate().unwrap();
    assert_eq!(from_text.spec.render(&ws.interner), render);
    let from_binary = read_spec_binary(&binary, &mut ws.interner).unwrap();
    from_binary.spec.validate().unwrap();
    assert_eq!(from_binary.spec.render(&ws.interner), render);
    let spec = &bundle.spec;
    Pin {
        clusters: spec.cluster_count(),
        edges: spec.edge_count(),
        equations: eq.equation_count(),
        render: fingerprint(render.as_bytes()),
        render_equations: fingerprint(eq.render_equations(&ws.interner).join("\n").as_bytes()),
        text: fingerprint(text.as_bytes()),
        binary: fingerprint(&binary),
    }
}

/// Pins of the Algorithm Q specification and of its minimized quotient.
fn pins(mut ws: Workspace) -> (Pin, Pin) {
    let bundle = ws.spec_bundle().unwrap();
    let min = SpecBundle {
        spec: bundle.spec.minimized(),
        sym_map: bundle.sym_map.clone(),
    };
    let pins = (pin(&mut ws, bundle), pin(&mut ws, min));
    println!("{pins:#?}");
    pins
}

#[test]
fn lists_worked_example_renders_as_pinned() {
    // The §3.4 worked example over the constants A and B (E1).
    let mut ws = subset_lists(2);
    let min = ws.graph_spec().unwrap().minimized();
    min.validate().unwrap();
    let render = min.render(&ws.interner);
    let equations = EqSpec::from_graph(&min).render_equations(&ws.interner);
    println!("{render}\n{equations:#?}");
    assert_eq!(render, LISTS_RENDER);
    assert_eq!(equations, LISTS_EQUATIONS);
    let _ = pins(subset_lists(2));
}

#[test]
fn subset_lists_4_is_pinned() {
    let (spec, min) = pins(subset_lists(4));
    assert_eq!(spec, SUBSET_LISTS_4.0);
    assert_eq!(min, SUBSET_LISTS_4.1);
}

#[test]
fn binary_counter_5_is_pinned() {
    let (spec, min) = pins(binary_counter(5));
    assert_eq!(spec, BINARY_COUNTER_5.0);
    assert_eq!(min, BINARY_COUNTER_5.1);
}

#[test]
fn ring_planner_6_is_pinned() {
    let (spec, min) = pins(ring_planner(6));
    assert_eq!(spec, RING_PLANNER_6.0);
    assert_eq!(min, RING_PLANNER_6.1);
}

#[test]
fn lists_worked_example_is_pinned() {
    let (spec, min) = pins(subset_lists(2));
    assert_eq!(spec, LISTS_2.0);
    assert_eq!(min, LISTS_2.1);
}

const LISTS_RENDER: &str = concat!(
    "node 0: 0\n",
    "  successor_ext[E0] -> node 1\n",
    "  successor_ext[E1] -> node 2\n",
    "node 1: ext[E0](0)\n",
    "  Member(E0)\n",
    "  successor_ext[E0] -> node 1\n",
    "  successor_ext[E1] -> node 3\n",
    "node 2: ext[E1](0)\n",
    "  Member(E1)\n",
    "  successor_ext[E0] -> node 3\n",
    "  successor_ext[E1] -> node 2\n",
    "node 3: ext[E1](ext[E0](0))\n",
    "  Member(E0)\n",
    "  Member(E1)\n",
    "  successor_ext[E0] -> node 3\n",
    "  successor_ext[E1] -> node 3\n",
);
const LISTS_EQUATIONS: &[&str] = &[
    "ext[E0](0) == ext[E0](ext[E0](0))",
    "ext[E0](0) == ext[E0](ext[E0](ext[E0](0)))",
    "ext[E1](0) == ext[E1](ext[E1](0))",
    "ext[E1](0) == ext[E1](ext[E1](ext[E1](0)))",
    "ext[E1](ext[E0](0)) == ext[E0](ext[E1](0))",
    "ext[E1](ext[E0](0)) == ext[E0](ext[E1](ext[E0](0)))",
    "ext[E1](ext[E0](0)) == ext[E0](ext[E1](ext[E1](0)))",
    "ext[E1](ext[E0](0)) == ext[E1](ext[E0](ext[E0](0)))",
    "ext[E1](ext[E0](0)) == ext[E1](ext[E1](ext[E0](0)))",
];
const BINARY_COUNTER_5: (Pin, Pin) = (
    Pin {
        clusters: 33,
        edges: 33,
        equations: 1,
        render: (4468, 10571974848919139569),
        render_equations: (142, 2161241985911754781),
        text: (4183, 11186042584548102739),
        binary: (4894, 3679948327913865624),
    },
    Pin {
        clusters: 32,
        edges: 32,
        equations: 2,
        render: (4268, 13007014239910308987),
        render_equations: (277, 15412149588675976191),
        text: (4114, 4750799628211264119),
        binary: (4826, 2337622300932744546),
    },
);
const RING_PLANNER_6: (Pin, Pin) = (
    Pin {
        clusters: 8,
        edges: 288,
        equations: 281,
        render: (10221, 2763937198383329863),
        render_equations: (19373, 8767603238505913387),
        text: (23093, 2209732368366091184),
        binary: (11655, 14003798584603129304),
    },
    Pin {
        clusters: 7,
        edges: 252,
        equations: 282,
        render: (8900, 3253168537837052478),
        render_equations: (19458, 13378020041547194001),
        text: (22325, 16957598039414346148),
        binary: (11211, 2017108463062559072),
    },
);
const SUBSET_LISTS_4: (Pin, Pin) = (
    Pin {
        clusters: 20,
        edges: 80,
        equations: 61,
        render: (3492, 4251774311326898035),
        render_equations: (3630, 222036648466388517),
        text: (4876, 7044222565002193061),
        binary: (3318, 5599002633122777875),
    },
    Pin {
        clusters: 16,
        edges: 64,
        equations: 65,
        render: (2826, 3495465748630493357),
        render_equations: (3730, 8691965051974389389),
        text: (4484, 7477449351035212329),
        binary: (3078, 5619669501004385162),
    },
);
const LISTS_2: (Pin, Pin) = (
    Pin {
        clusters: 6,
        edges: 12,
        equations: 7,
        render: (570, 11018500315975822988),
        render_equations: (354, 12942467823382430668),
        text: (734, 3642839878110565633),
        binary: (610, 14794962873020540278),
    },
    Pin {
        clusters: 4,
        edges: 8,
        equations: 9,
        render: (368, 16045935169827744235),
        render_equations: (404, 12091055424616757890),
        text: (634, 8814192589844082125),
        binary: (538, 14133161497376756346),
    },
);
