import dataclasses
import functools
import itertools
import os
import threading

import pytest
from axioms_reference import REFERENCE_CHECKS

from diagcat import axioms as ax
from diagcat import diagrep as dr
from diagcat.abelian import parse_group
from diagcat.field import ExactField, QQ

F2 = ExactField(2)
F3 = ExactField(3)
F5 = ExactField(5)
Z2 = parse_group("Z/2")
Z4 = parse_group("Z/4")


def test_bounds_validation():
    b = ax.bounds(2, 2)
    assert b == ax.FragmentBound(2, 2)
    assert ax.check_axioms(F3, Z2, b).to_json()["bounds"] == {
        "max_dimension": 2, "max_tensor_length": 2,
    }
    with pytest.raises(ValueError):
        ax.bounds(0, 1)
    with pytest.raises(ValueError):
        ax.FragmentBound(1, 0)


def test_infinite_inputs_rejected():
    with pytest.raises(ValueError):
        ax.check_axioms(QQ, Z2, ax.bounds(1, 1))
    with pytest.raises(ValueError):
        ax.check_axioms(F3, parse_group("Z"), ax.bounds(1, 1))


def test_canonical_model_passes():
    report = ax.check_axioms(F3, Z2, ax.bounds(2, 2))
    assert report.all_pass
    assert len(report.results) == 27
    assert [r.index for r in report.results] == list(range(1, 28))
    assert len(report.skipped) == 0


def test_monotonicity_of_bounds():
    # axioms passing at (2, 2) stay passing at every smaller bound
    for nm in [(1, 1), (2, 1), (1, 2)]:
        report = ax.check_axioms(F3, Z2, ax.bounds(*nm))
        assert report.all_pass, nm


def test_report_json_shape():
    report = ax.check_axioms(F3, Z2, ax.bounds(1, 1))
    payload = report.to_json()
    assert payload["schema"] == 1
    assert payload["passed"] == 27 and payload["skipped"] == 0
    assert len(payload["results"]) == 27
    text = ax.report_to_text(report)
    assert "27/27 passed" in text


@pytest.mark.parametrize(
    "field, name",
    [(F3, n) for n in ax.MUTATIONS] + [(F2, n) for n in ax.MUTATIONS],
    ids=[*ax.MUTATIONS, *(f"F2-{n}" for n in ax.MUTATIONS)],
)
def test_selected_mutations_flip_their_axiom(field, name):
    """Over the small fields too, where 2 = 0 or 3 = 0, each mutation fails
    exactly its axiom."""
    mut = ax.MUTATIONS[name]
    bound = ax.bounds(2, 2)
    model = ax.mutated_model(field, Z2, bound, name)
    report = ax.check_axioms(field, Z2, bound, model)
    assert sorted(r.index for r in report.failed) == [mut.axiom]


def test_mutation_counterexample_reverifies():
    """A reported counterexample must re-check against the corrupted model."""
    bound = ax.bounds(2, 2)
    model = ax.mutated_model(F3, Z2, bound, "tensor-collapses-to-zero")
    report = ax.check_axioms(F3, Z2, bound, model)
    (fail,) = report.failed
    assert fail.index == 15 and fail.witness is not None
    b = dr.parse_object(Z2, fail.witness["b"])
    c = dr.parse_object(Z2, fail.witness["c"])
    t = model.tensor_vec(
        dr.basis_vector(F3, b, 0), dr.basis_vector(F3, c, 0)
    )
    assert t.is_zero_vector()  # the corruption is real


def test_duplicate_irreducible_counterexample():
    bound = ax.bounds(2, 2)
    model = ax.mutated_model(F3, Z2, bound, "duplicate-irreducible")
    report = ax.check_axioms(F3, Z2, bound, model)
    (fail,) = report.failed
    assert fail.index == 21
    assert "dup" in (fail.witness["first"] + fail.witness["second"])


def test_mutation_catalog_targets():
    targets = sorted(m.axiom for m in ax.MUTATIONS.values())
    assert len(targets) == len(set(targets)) >= 10
    assert {m.symbol for m in ax.MUTATIONS.values()} <= ax.SIGNATURE.keys()


def test_checks_read_exactly_the_signature():
    """On the canonical model the 27 checks together read every symbol of
    the signature through `_call`, and nothing else."""
    model = ax.FragmentModel(F3, Z2, ax.bounds(2, 2))
    read = set()
    for check in ax.AXIOM_CHECKS:
        read |= _run_recording_hooks(model, check)[1]
    assert read == ax.SIGNATURE.keys()


def test_override_of_an_unknown_symbol_is_refused():
    model = ax.FragmentModel(F3, Z2, ax.bounds(1, 1))
    with pytest.raises(ValueError, match="'tensor_vector' is not a symbol"):
        model.override("tensor_vector", lambda m, v, w: None)
    assert model.interpretation == ax.SIGNATURE


def test_tensor_owner_witness_is_sorted():
    """The owners witness of axiom 13 comes from a set of objects whose hash
    varies between processes (leaf shapes hash None, which Python 3.11
    hashes by address), so it is sorted to keep `--json` bytes stable."""
    model = ax.mutated_model(F5, Z4, ax.bounds(2, 2), "tensor-owner-inconsistent")
    result = ax.check_tensor_projection_compatible(model)
    owners = result.witness["owners"]
    assert result.status == "fail" and len(owners) == 2
    assert owners == sorted(owners)


def _reference_all_objects(model):
    """The fragment loop `all_objects` ran before it shared `tensor_words`."""
    from diagcat.paren import enumerate_shapes

    n_max, m_max = model.bound.max_dimension, model.bound.max_tensor_length
    irr = {n: model.irreducible_objects(n) for n in range(1, n_max + 1)}
    out = []
    for m in range(1, m_max + 1):
        for shape in enumerate_shapes(m):
            for sizes in dr.compositions_with_product_at_most(m, n_max):
                for choice in itertools.product(*(irr[s] for s in sizes)):
                    out.append(dr.BaseObject(shape, tuple(b.leaves[0] for b in choice)))
    return out


def test_all_objects_is_the_shared_word_enumeration():
    bound = ax.bounds(3, 3)
    model = ax.FragmentModel(F5, Z4, bound)
    assert model.all_objects() == list(dr.enumerate_objects(Z4, 3, 3))
    assert model.all_objects() == _reference_all_objects(model)
    dup = ax.mutated_model(F5, Z4, bound, "duplicate-irreducible")
    objs = dup.all_objects()
    assert objs == _reference_all_objects(dup)
    assert len(objs) > len(list(dr.enumerate_objects(Z4, 3, 3)))


@pytest.mark.parametrize(
    "hook, axiom, thing",
    [
        ("identity_morphism", 10, "identity"),
        ("normalizer", 21, "normalizer"),
        ("dual_data", 23, "dual"),
        ("biproduct_data", 24, "biproduct"),
        ("kernel_data", 25, "kernel"),
        ("cokernel_data", 26, "cokernel"),
    ],
)
def test_absent_witness_constructor_is_skipped(hook, axiom, thing):
    """A witness hook that returns None skips its existential axiom: no
    pass from the canonical model's own witness, no error."""
    bound = ax.bounds(2, 2)
    model = ax.FragmentModel(F3, Z2, bound)
    model.override(hook, lambda m, *args: None)
    report = ax.check_axioms(F3, Z2, bound, model)
    assert not report.failed
    (skip,) = report.skipped
    assert (skip.index, skip.detail) == (axiom, f"no {thing} constructor")
    assert report.to_json()["skipped"] == 1


def _graph_over_wrong_object(m, f, vs):
    wrong = dr.tensor_obj(f.target, f.target)
    return [(v, dr.zero_vector(m.field, wrong)) for v in vs]


def _squared_tensor(m, v, w):
    t = dr.tensor_vec(v, w)
    return dr.ModelVector(m.field, t.obj, tuple(m.field.mul(x, x) for x in t.coeffs))


def _swapped_factorization(m, b):
    tree = dr.tensor_factorize(b)
    return tree if isinstance(tree, dr.BaseObject) else (tree[1], tree[0])


# name -> (hook, corrupted hook, axioms it fails on F3, Z/2, N = M = 2)
HOOK_CORRUPTIONS = {
    "graph-empty": ("morphism_graph_pairs", lambda m, f, vs: [], [7]),
    "graph-wrong-object": ("morphism_graph_pairs", _graph_over_wrong_object, [8]),
    "tensor-squared": ("tensor_vec", _squared_tensor, [14]),
    "associator-doubled": (
        "associator_morphism",
        lambda m, b, c, d: dr.scale_morphism(
            m.field.of(2), dr.associator(m.field, b, c, d)),
        [17],
    ),
    "braiding-doubled": (
        "braiding_morphism",
        lambda m, b, c: dr.scale_morphism(m.field.of(2), dr.braiding(m.field, b, c)),
        [18],
    ),
    "tensor-normalized": (
        "tensor_obj",
        lambda m, b, c: dr.normalized_object(dr.tensor_obj(b, c)),
        [19, 20],
    ),
    "factorization-swapped": ("tensor_factorization", _swapped_factorization, [20]),
}


@pytest.mark.parametrize(
    "hook, corrupt, failed", list(HOOK_CORRUPTIONS.values()), ids=list(HOOK_CORRUPTIONS)
)
def test_unmutated_axioms_can_fail(hook, corrupt, failed):
    """Axioms without a registered mutation still fail on a corrupted hook."""
    bound = ax.bounds(2, 2)
    model = ax.FragmentModel(F3, Z2, bound)
    model.override(hook, corrupt)
    report = ax.check_axioms(F3, Z2, bound, model)
    assert [r.index for r in report.failed] == failed
    assert not report.skipped


def _corrupted_model(field, group, corruption):
    """The canonical model at N = M = 2 (`corruption` None), or that model
    under each registered mutation or HOOK_CORRUPTIONS entry named in
    `corruption`, names joined by '+'."""
    model = ax.FragmentModel(field, group, ax.bounds(2, 2))
    for name in corruption.split("+") if corruption else ():
        if name in ax.MUTATIONS:
            ax.MUTATIONS[name].apply(model)
        else:
            hook, corrupt, _ = HOOK_CORRUPTIONS[name]
            model.override(hook, corrupt)
    return model


def _overridden(model):
    return {s for s, fn in model.interpretation.items() if fn is not ax.SIGNATURE[s]}


def _run_recording_hooks(model, check):
    """The result of `check` on `model` and the names of the hooks it read."""
    read = set()
    call = model._call

    def recording(name, *args):
        read.add(name)
        return call(name, *args)

    model._call = recording
    try:
        return check(model), read
    finally:
        del model._call


@pytest.mark.parametrize("field, group", [(F5, Z4), (F3, Z2)], ids=["F5-Z4", "F3-Z2"])
def test_checks_match_reference(field, group):
    """Each check that evaluates a hook term once per assignment gives the
    result (status, detail and witness) of the reference that calls the hooks
    afresh, on the canonical model and under every corruption. A check whose
    two versions read none of the hooks a corruption overrides runs exactly
    as on the canonical model there, so it is compared on the canonical model
    only."""
    canonical = _corrupted_model(field, group, None)
    reads = {}
    for index, reference in REFERENCE_CHECKS.items():
        got, read = _run_recording_hooks(canonical, getattr(ax, reference.__name__))
        want, read_ref = _run_recording_hooks(canonical, reference)
        assert got == want, (None, index)
        reads[index] = read | read_ref
    failed = set()
    for corruption in [*ax.MUTATIONS, *HOOK_CORRUPTIONS]:
        model = _corrupted_model(field, group, corruption)
        overridden = _overridden(model)
        for index, reference in REFERENCE_CHECKS.items():
            if not reads[index] & overridden:
                continue
            got = getattr(ax, reference.__name__)(model)
            assert got == reference(model), (corruption, index)
            if got.status == "fail":
                failed.add(index)
    # every fail path was compared; check 12 has none, since the sum and
    # double of basis labels always lie in the labels' own span
    assert failed == set(REFERENCE_CHECKS) - {12}


class _SameHash:
    """A tensor product whose hash is one constant; equal by value."""

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _SameHash) and self.obj == other.obj

    def __hash__(self):
        return 7

    def __str__(self):
        return str(self.obj)


@pytest.mark.parametrize("merge", [False, True], ids=["injective", "merging"])
def test_factorization_unique_through_hash_collisions(merge):
    """Products whose hashes all collide are told apart by `==`: an
    injective tensor still passes, and a tensor that merges two pairs, past
    the first product with that hash, fails with the reference witness."""
    model = ax.FragmentModel(F3, Z2, ax.bounds(2, 2))
    objs = model.all_objects()
    merged = (objs[2], objs[1]) if merge else None

    def tensor(m, b, c):
        if (b, c) == merged:
            b, c = c, b
        return _SameHash(dr.tensor_obj(b, c))

    model.override("tensor_obj", tensor)
    got = ax.check_factorization_unique(model)
    assert got == REFERENCE_CHECKS[19](model)
    if merge:
        assert got.status == "fail"
        assert got.witness["first"] == [str(objs[1]), str(objs[2])]
        assert got.witness["second"] == [str(objs[2]), str(objs[1])]
    else:
        assert got.status == "pass"


def test_hook_calls_per_assignment():
    """Check 5 scales each vector once per scalar and once per pair of
    scalars; check 19 forms each tensor product of the fragment once."""
    model = ax.FragmentModel(F5, Z4, ax.bounds(2, 2))
    counts = {"scalar_mul": 0, "tensor_obj": 0}

    def counting(hook, default):
        def call(m, *args):
            counts[hook] += 1
            return default(*args)

        return call

    model.override("scalar_mul", counting("scalar_mul", dr.scale_vector))
    model.override("tensor_obj", counting("tensor_obj", dr.tensor_obj))
    objs = model.all_objects()
    k = len(F5.elements())
    assert ax.check_scalar_multiplication(model).status == "pass"
    vectors = sum(len(ax._combo_vectors(model, b)) for b in objs)
    assert counts["scalar_mul"] == vectors * (k + k * k)
    assert ax.check_factorization_unique(model).status == "pass"
    assert counts["tensor_obj"] == len(objs) ** 2


def _nonzero_rep_pairs(model):
    """The pairs of class representatives with a nonzero hom space,
    row-major, counted by weight multiplicities rather than hom bases."""
    reps = model.sigma_reps()
    return [(b, c) for b in reps for c in reps if dr.hom_dimension(b, c) > 0]


@pytest.mark.parametrize(
    "field, group, bound, pairs",
    [(F3, Z2, (2, 2), 68), (F5, Z4, (2, 2), 376)],
    ids=["F3-Z2", "F5-Z4"],
)
def test_faithfulness_detail_counts_pairs(field, group, bound, pairs):
    """Check 9 tests faithfulness on the first 200 nonzero hom spaces, or on
    all of them when there are fewer, and its detail says how many."""
    model = ax.FragmentModel(field, group, ax.bounds(*bound))
    assert len(_nonzero_rep_pairs(model)) == pairs
    result = ax.check_morphisms_are_linear_graphs(model)
    assert result.status == "pass"
    assert result.detail.endswith(f"faithfulness on {min(pairs, 200)} rep pairs")


@pytest.mark.parametrize("k, status", [(1, "fail"), (200, "fail"), (201, "pass")])
def test_faithfulness_bound_is_the_first_200_pairs(k, status):
    """A duplicated morphism label planted in the k-th nonzero hom space
    (1-based, row-major) fails axiom 9 exactly when k <= 200."""
    model = ax.FragmentModel(F5, Z4, ax.bounds(3, 2))
    planted = _nonzero_rep_pairs(model)[k - 1]

    def hom(m, b, c):
        basis = list(m.canonical_hom_basis(b, c))
        if (b, c) == planted:
            basis.append(dataclasses.replace(basis[0], tag="dup"))
        return basis

    model.override("hom_basis", hom)
    result = ax.check_morphisms_are_linear_graphs(model)
    assert result.status == status
    if status == "fail":
        assert result.witness == {"source": str(planted[0]), "target": str(planted[1])}


# ---------------------------------------------------------------------------
# The runner: checks in forked workers give the serial report


def _report(field, group, model, cpus):
    """`check_axioms` on `model` with the runner's CPU count set to `cpus`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ax, "_usable_cpus", lambda: cpus)
        return ax.check_axioms(field, group, model.bound, model)


@functools.cache
def _serial_report(field, group, corruption):
    """The serial report on `_corrupted_model`, computed once per argument
    triple: the checks are deterministic and no test alters a report."""
    return _report(field, group, _corrupted_model(field, group, corruption), 1)


def _assert_no_children():
    """No child of this process is running or left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def empty_store(monkeypatch):
    """An empty store of canonical results for the test, so that a model
    runs every check; the process's own store comes back after it."""
    store = {}
    monkeypatch.setattr(ax, "_CANONICAL", store)
    return store


@functools.cache
def _canonical_reads(field, group):
    """Per check, the symbols it reads through `_call` on the canonical
    model at N = M = 2."""
    model = _corrupted_model(field, group, None)
    return tuple(
        frozenset(_run_recording_hooks(model, chk)[1]) for chk in ax.AXIOM_CHECKS
    )


@pytest.fixture
def forks(monkeypatch):
    """The calls to `os.fork`, which still forks."""
    calls = []
    fork = os.fork

    def counting():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return calls


@pytest.mark.parametrize("field, group", [(F5, Z4), (F3, Z2)], ids=["F5-Z4", "F3-Z2"])
def test_each_check_alone_gives_its_result_in_the_run(field, group):
    """No state shared across checks changes a result: each check, run alone
    on a fresh model, gives the result it gives after all the checks before
    it in one serial run, on the canonical model and under every mutation.
    The serial run of a mutation takes from the store of canonical results
    each check that does not read the mutated symbol, so this also compares
    those stored results with fresh runs."""
    for corruption in [None, *ax.MUTATIONS]:
        alone = tuple(
            chk(_corrupted_model(field, group, corruption)) for chk in ax.AXIOM_CHECKS
        )
        assert alone == _serial_report(field, group, corruption).results, corruption


@pytest.mark.parametrize(
    "field, group, corruption",
    [(F5, Z4, c) for c in [None, *ax.MUTATIONS]]
    + [(F3, Z2, c) for c in HOOK_CORRUPTIONS],
    ids=[f"F5-Z4-{c}" for c in ["canonical", *ax.MUTATIONS]]
    + [f"F3-Z2-{c}" for c in HOOK_CORRUPTIONS],
)
def test_parallel_report_is_the_serial_report(field, group, corruption, forks, empty_store):
    model = _corrupted_model(field, group, corruption)
    report = _report(field, group, model, 3)
    assert len(forks) == 2
    assert report.to_json() == _serial_report(field, group, corruption).to_json()
    _assert_no_children()


def _in_children_only(how):
    """The checks, each spoiling its result when run in a forked child: the
    child dies, raises, or returns a result that does not pickle."""
    parent = os.getpid()

    def spoil(chk):
        def run(model):
            result = chk(model)
            if os.getpid() == parent:
                return result
            if how == "dies":
                os._exit(3)
            if how == "raises":
                raise RuntimeError("raised in a child")
            return dataclasses.replace(result, witness={"lock": threading.Lock()})

        return run

    return [spoil(chk) for chk in ax.AXIOM_CHECKS]


@pytest.mark.parametrize("how", ["dies", "raises", "unpicklable"])
def test_results_lost_in_children_are_recomputed(monkeypatch, forks, empty_store, how):
    """A check whose result does not come back from a child runs again in
    the caller, so the report is the serial one, and the caller records the
    footprint of that run."""
    monkeypatch.setattr(ax, "AXIOM_CHECKS", _in_children_only(how))
    report = _report(F3, Z2, ax.FragmentModel(F3, Z2, ax.bounds(2, 2)), 3)
    assert len(forks) == 2
    assert report.to_json() == _serial_report(F3, Z2, None).to_json()
    _assert_no_children()
    (stored,) = empty_store.values()
    assert sorted(stored) == list(range(27))
    assert tuple(stored[i][1] for i in range(27)) == _canonical_reads(F3, Z2)


def _raising(message):
    def hook(m, *args):
        raise RuntimeError(message)

    return hook


@pytest.mark.parametrize("cpus", [1, 3], ids=["serial", "parallel"])
def test_first_raising_check_raises_in_the_caller(forks, empty_store, cpus):
    """With checks 18 and 25 both raising, check 18's exception reaches the
    caller, whichever worker ran either check."""
    model = ax.FragmentModel(F3, Z2, ax.bounds(2, 2))
    model.override("braiding_morphism", _raising("no braiding"))
    model.override("kernel_data", _raising("no kernels"))
    with pytest.raises(RuntimeError, match="^no braiding$"):
        _report(F3, Z2, model, cpus)
    assert len(forks) == cpus - 1
    _assert_no_children()


@pytest.fixture
def refused_forks(monkeypatch):
    """The calls to `os.fork`, each refused as when out of processes."""
    calls = []

    def refuse():
        calls.append(os.getpid())
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(ax, "_usable_cpus", lambda: 2)
    return calls


def test_live_threads_keep_every_check_in_process(refused_forks):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        report = ax.check_axioms(F3, Z2, ax.bounds(2, 2))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert report.to_json() == _serial_report(F3, Z2, None).to_json()
    assert refused_forks == []


def test_refused_fork_runs_every_check_in_process(refused_forks):
    report = ax.check_axioms(F3, Z2, ax.bounds(2, 2))
    assert report.to_json() == _serial_report(F3, Z2, None).to_json()
    assert len(refused_forks) == 1
    _assert_no_children()


def test_no_fork_runs_every_check_in_process(monkeypatch):
    monkeypatch.setattr(ax, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    report = ax.check_axioms(F3, Z2, ax.bounds(2, 2))
    assert report.to_json() == _serial_report(F3, Z2, None).to_json()


@pytest.mark.parametrize("cpus, children", [(1, []), (2, [1]), (4, [3]), (64, [26])])
def test_workers_are_capped_by_cpus_and_checks(monkeypatch, empty_store, cpus, children):
    """The parent and one child per further usable CPU, 27 workers at most."""
    asked = []
    monkeypatch.setattr(ax, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(ax, "_run_forked", lambda model, checks, n: asked.append(n) or {})
    assert ax.check_axioms(F3, Z2, ax.bounds(1, 1)).all_pass
    assert asked == children


# ---------------------------------------------------------------------------
# Checking by difference: the store of canonical results


def _counted(monkeypatch):
    """Wrap AXIOM_CHECKS so that each call appends its check index to the
    returned list, with one usable CPU, so that every check runs in this
    process."""
    calls = []

    def counting(i, chk):
        def run(model):
            calls.append(i)
            return chk(model)

        return run

    checks = [counting(i, chk) for i, chk in enumerate(ax.AXIOM_CHECKS)]
    monkeypatch.setattr(ax, "AXIOM_CHECKS", checks)
    monkeypatch.setattr(ax, "_usable_cpus", lambda: 1)
    return calls


@pytest.mark.parametrize("field, group", [(F5, Z4), (F3, Z2)], ids=["F5-Z4", "F3-Z2"])
def test_reuse_from_the_store_is_exact(monkeypatch, empty_store, field, group):
    """Under every corruption, and two at once, the report read partly from
    a warm store is the report of a run from an empty one, whether the
    canonical model or another mutation warmed the store. A run stores
    exactly the canonical results of the checks that do not read what it
    overrides. A check that reads an overridden symbol still runs, each
    check at most once, and the canonical model still runs all 27."""
    reads = _canonical_reads(field, group)
    bound = ax.bounds(2, 2)
    cold = {}
    corruptions = [*ax.MUTATIONS, *HOOK_CORRUPTIONS, "tensor-collapses-to-zero+kernel-truncated"]
    for corruption in corruptions:
        empty_store.clear()
        model = _corrupted_model(field, group, corruption)
        cold[corruption] = ax.check_axioms(field, group, bound, model).to_json()
    warm_by = {}
    for warmer in (None, "independence-tautology", "kernel-truncated", "duplicate-irreducible"):
        empty_store.clear()
        model = _corrupted_model(field, group, warmer)
        ax.check_axioms(field, group, bound, model)
        (warm_by[warmer],) = empty_store.values()
        assert {i: fp for i, (_, fp) in warm_by[warmer].items()} == {
            i: reads[i] for i in range(27) if not reads[i] & _overridden(model)
        }
    for warmer, stored in warm_by.items():
        assert stored.items() <= warm_by[None].items(), warmer

    calls = _counted(monkeypatch)
    for corruption, want in cold.items():
        another = "independence-tautology"
        if corruption == another:
            another = "kernel-truncated"
        for warmer in (None, another):
            empty_store.clear()
            empty_store[(field, group, bound)] = dict(warm_by[warmer])
            calls.clear()
            model = _corrupted_model(field, group, corruption)
            got = ax.check_axioms(field, group, bound, model).to_json()
            assert got == want, (corruption, warmer)
            overridden = _overridden(model)
            assert len(calls) == len(set(calls)) < 27, (corruption, warmer)
            assert {i for i in range(27) if reads[i] & overridden} <= set(calls)
    calls.clear()
    ax.check_axioms(field, group, bound)
    assert calls == list(range(27))


class _Subclass(ax.FragmentModel):
    pass


def _ineligible(kind):
    """A model the store may not serve, reinterpreting `li_predicate`."""
    bound = ax.bounds(2, 2)
    mutation = ax.MUTATIONS["independence-tautology"]
    if kind == "subclass":
        return mutation.apply(_Subclass(F3, Z2, bound))
    model = ax.mutated_model(F3, Z2, bound, mutation.name)
    if kind == "shadowed-call":
        call = model._call
        model._call = lambda symbol, *args: call(symbol, *args)
    elif kind == "shadowed-hook":
        model.tensor_vec = functools.partial(ax.SIGNATURE["tensor_vec"], model)
    elif kind == "replaced-hom-bases":
        model.canonical_hom_basis = lambda b, c: []
    return model


@pytest.mark.parametrize(
    "kind", ["subclass", "shadowed-call", "shadowed-hook", "replaced-hom-bases", "thread"]
)
def test_ineligible_models_bypass_the_store(monkeypatch, empty_store, kind):
    """A subclass, an instance with a shadowed `_call` or hook (as
    `_run_recording_hooks` makes) or its own canonical hom bases, and any
    model checked while another thread is alive run every check and leave
    the store as it was."""
    ax.check_axioms(F3, Z2, ax.bounds(2, 2))
    before = {key: dict(stored) for key, stored in empty_store.items()}
    calls = _counted(monkeypatch)
    model = _ineligible(kind)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if kind == "thread":
        thread.start()
    try:
        report = ax.check_axioms(F3, Z2, model.bound, model)
    finally:
        stop.set()
        if kind == "thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert sorted(calls) == list(range(27))
    assert [r.index for r in report.failed] == [27]
    assert empty_store == before


def test_results_with_a_witness_are_not_stored(monkeypatch, empty_store):
    """A canonical result with a witness is not stored, so no caller shares
    its witness dict with another."""
    def with_witness(model):
        return dataclasses.replace(ax.check_linear_independence(model), witness={"b": "1"})

    monkeypatch.setattr(ax, "AXIOM_CHECKS", [*ax.AXIOM_CHECKS[:26], with_witness])
    ax.check_axioms(F3, Z2, ax.bounds(1, 1))
    (stored,) = empty_store.values()
    assert sorted(stored) == list(range(26))
