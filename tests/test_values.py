"""Value semantics of the library's record types: construction by position
or keyword, the checks each one runs, equality, hashing, printing and
immutability; and the refusals of the functions that build them."""

import pytest

from fsmwm import (
    ConnGraph,
    DimensionError,
    Fsm,
    FsmwmError,
    LprkSpec,
    Partition,
    PartitionError,
    PartitionPair,
    Path,
    PermKey,
    SemanticError,
    Transcript,
    Verdict,
    build_decomp_bundle,
    build_dependent,
    parse_fsm,
    parse_kiss2,
    random_perm_key,
    renumber_inverse,
)
from fsmwm.reduction import chain_of
from conftest import make_chain_host, make_host8


def test_repr_names_every_field_in_order():
    assert repr(Verdict(False, 2, ("a", "b"), ("a",))) == (
        "Verdict(passed=False, divergence_index=2, expected=('a', 'b'), observed=('a',))")
    assert repr(LprkSpec(n=4, k=3, z=4)) == "LprkSpec(n=4, k=3, z=4)"
    assert repr(Partition.of([[0, 2], [1]])) == "Partition(states=(0, 1, 2), assign=(0, 1, 0))"
    assert repr(PermKey((1, 0))) == "PermKey(image=(1, 0))"


def test_equality_is_by_type_and_fields():
    assert LprkSpec(1, 2, 3) == LprkSpec(n=1, k=2, z=3)
    assert LprkSpec(1, 2, 3) != LprkSpec(1, 2, 4)
    assert hash(LprkSpec(1, 2, 3)) == hash(LprkSpec(z=3, k=2, n=1))
    assert PermKey((0, 1)) != Path((0, 1))
    assert Path((0, 1)) != (0, 1) and Path((0, 1)) != ((0, 1),)
    assert LprkSpec(1, 2, 3) != (1, 2, 3)


def test_fsm_hash_leaves_out_the_step_map():
    host = make_host8()
    cut = Fsm(host.states, host.inputs, host.outputs, host.reset, {})
    assert cut != host
    assert hash(cut) == hash(host)
    assert len({host, cut}) == 2


def test_conn_graph_equality_ignores_its_successor_cache():
    g = ConnGraph(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2)}), 0)
    h = ConnGraph(vertices=frozenset({0, 1, 2}), edges=frozenset({(0, 1), (0, 2)}), root=0)
    assert g.successors(0) == (1, 2)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)


@pytest.mark.parametrize("value, name", [
    (make_host8(), "reset"),
    (ConnGraph(frozenset({0}), frozenset(), 0), "root"),
    (LprkSpec(1, 1, 1), "n"),
    (Partition.of([[0]]), "assign"),
    (PermKey((0,)), "image"),
    (Verdict(True, None, (), ()), "passed"),
], ids=lambda v: type(v).__name__ if not isinstance(v, str) else v)
def test_assignment_to_a_frozen_value_is_refused(value, name):
    with pytest.raises(AttributeError):
        setattr(value, name, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)


def test_transcript_is_mutable_and_unhashable():
    t, u = Transcript(3, 1, 2, 0), Transcript(3, 1, 2, 0)
    assert t.windows == [] and t.windows is not u.windows
    t.windows.append(("%d 1 0 0 Shift\n", 1))
    assert t != u
    with pytest.raises(AttributeError):
        t.seed = 5
    with pytest.raises(TypeError):
        hash(u)


@pytest.mark.parametrize("call", [
    lambda: LprkSpec(1, 2), lambda: LprkSpec(1, 2, 3, 4), lambda: LprkSpec(1, 2, 3, n=1),
    lambda: LprkSpec(1, 2, w=3), lambda: LprkSpec(n=1, k=2), lambda: LprkSpec(n=1, k=2, z=3, w=4),
    lambda: Transcript(3, 1, 2, 0, [], 5), lambda: Transcript(3, 1, 2, windows=[]),
], ids=["missing", "extra", "twice", "unknown", "missing-keyword", "unknown-keyword",
        "extra-past-defaults", "missing-before-defaults"])
def test_a_call_that_does_not_fit_the_fields_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_transcript_defaults():
    t = Transcript(3, 1, 2, 0)
    assert t.windows == [] and Transcript(3, 1, 2, 0, None).windows == []
    assert t == Transcript(n_b=3, chi=1, omega=2, seed=0, windows=[])


REFUSALS = [
    (Fsm, dict(states=frozenset({0}), inputs=("0",), outputs=("a",), reset=5, transitions={}),
     SemanticError, "reset state 5 not in state set"),
    (Fsm, dict(states=frozenset({0}), inputs=("0",), outputs=("a",), reset=0,
               transitions={(0, "0"): (9, "a")}), SemanticError, "leaves the state set"),
    (Fsm, dict(states=frozenset({0}), inputs=("0",), outputs=("a",), reset=0,
               transitions={(0, "1"): (0, "a")}), SemanticError, "unknown input symbol '1'"),
    (Fsm, dict(states=frozenset({0}), inputs=("0",), outputs=("a",), reset=0,
               transitions={(0, "0"): (0, "b")}), SemanticError, "unknown output symbol 'b'"),
    (ConnGraph, dict(vertices=frozenset({0}), edges=frozenset(), root=1),
     SemanticError, "root 1 not in vertex set"),
    (ConnGraph, dict(vertices=frozenset({0}), edges=frozenset({(0, 1)}), root=0),
     SemanticError, "leaves the vertex set"),
    (Path, dict(vertices=()), FsmwmError, "paths are nonempty"),
    (LprkSpec, dict(n=1, k=0, z=1), FsmwmError, "must be >= 1"),
    (Partition, dict(states=(0, 1), assign=(0,)), PartitionError, "differ in length"),
    (Partition, dict(states=(1, 0), assign=(0, 1)), PartitionError, "strictly ascending"),
    (Partition, dict(states=(0, 1), assign=(1, 0)), PartitionError, "numbered by minimum"),
    (PermKey, dict(image=(0, 0)), DimensionError, "not a permutation"),
]


@pytest.mark.parametrize("cls, fields, error, message", REFUSALS,
                         ids=[f"{c.__name__}-{m}" for c, _, _, m in REFUSALS])
def test_each_check_refuses_by_position_and_by_keyword(cls, fields, error, message):
    with pytest.raises(error, match=message):
        cls(*fields.values())
    with pytest.raises(error, match=message):
        cls(**fields)


_CHAIN3 = make_chain_host(3)            # 0 -> 1 -> 2, which loops
_WHOLE = Partition.of([[0, 1, 2]])

CALL_REFUSALS = [
    (lambda: build_dependent(_CHAIN3, PartitionPair(_WHOLE, Partition.of([[0, 1], [2]]))),
     PartitionError, "dependent partition is not input-preserving"),
    (lambda: build_dependent(_CHAIN3, PartitionPair(_WHOLE, _WHOLE)),
     PartitionError, "partition pair is not orthogonal"),
    (lambda: parse_fsm('{"states": [0], "inputs": [0], "outputs": [], "reset": 0, '
                       '"transitions": []}'), SemanticError, "inputs must be strings"),
    (lambda: parse_kiss2(".i 1\n.o 1\n"), SemanticError, "no states in document"),
    (lambda: random_perm_key(0, 1), DimensionError, "dimension must be >= 1"),
    (lambda: build_decomp_bundle(make_host8(), 2, 2, mode="weird"),
     FsmwmError, "unknown decomposition mode 'weird'"),
    (lambda: renumber_inverse(Path((4,)), 5, Path((1, 2))),
     FsmwmError, "value 4 not in the renumbered range"),
    (lambda: chain_of(ConnGraph(frozenset({0, 1, 2}), frozenset({(0, 1), (0, 2)}), 0)),
     FsmwmError, "graph is not linear"),
]


@pytest.mark.parametrize("call, error, message", CALL_REFUSALS,
                         ids=[m for _, _, m in CALL_REFUSALS])
def test_each_function_refusal_raises_its_type_and_message(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert type(e.value) is error and str(e.value) == message
