"""``generate`` against the per-event generator it replaced (``reference_generation.py``).

Process models are drawn by hypothesis: activity graphs with single- and
multi-target transitions and cycles, and every rule kind, with derivations
from derivations and attributes listed in an order other than the fill order.
Values and attribute names hold delimiters, quotes and line breaks, so the
text compared also covers the writer's quoting.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edbn import ProcessModelError, default_shipping_model, generate, serialize_log
from edbn.synth import ProcessModel, Rule

from reference_generation import reference_generate

TEXT = st.text(st.sampled_from('ab,;"\t\n\r 1té'), max_size=4)
KINDS = ("constant", "event-pool", "trace-pool", "activity_choice", "derived")


@st.composite
def process_models(draw) -> ProcessModel:
    activities = draw(st.lists(TEXT, min_size=2, max_size=5, unique=True))
    ends = {activities[-1], *draw(st.lists(st.sampled_from(activities), max_size=2))}
    weights = st.one_of(st.integers(1, 4), st.floats(0.05, 4.0))
    transitions = {}
    for i, act in enumerate(activities[:-1]):
        # a forward step keeps an end reachable; the others may loop back, or be none at all
        targets = {activities[i + 1]: draw(weights)}
        for target in draw(st.lists(st.sampled_from(activities), max_size=3)):
            targets.setdefault(target, draw(weights))
        if act not in ends or draw(st.booleans()):
            transitions[act] = targets
    names = draw(st.lists(TEXT.filter(lambda s: s and s not in ("case", "activity")), min_size=1, max_size=6,
                          unique=True))
    possible = {"activity": set(activities)}
    rules = {}
    for name in names:  # fill order: each derivation reads an attribute drawn before it
        kind = draw(st.sampled_from(KINDS))
        if kind == "constant":
            rules[name] = Rule(kind="constant", value=draw(TEXT))
            possible[name] = {rules[name].value}
        elif kind.endswith("pool"):
            values = tuple(draw(st.lists(TEXT, min_size=1, max_size=4)))
            rules[name] = Rule(kind="pool", values=values, scope=kind.split("-")[0])
            possible[name] = set(values)
        elif kind == "activity_choice":
            pools = {act: tuple(draw(st.lists(TEXT, min_size=1, max_size=3))) for act in activities}
            rules[name] = Rule(kind="activity_choice", pools=pools)
            possible[name] = {v for pool in pools.values() for v in pool}
        else:
            # once an attribute is derived, each later derivation reads a derived one, so that every run of
            # 200 draws holds chains (the first derivation still reads any attribute)
            derived = [n for n, rule in rules.items() if rule.kind == "derived"]
            source = draw(st.sampled_from(derived or sorted(possible)))
            mapping = {x: draw(TEXT) for x in sorted(possible[source])}
            rules[name] = Rule(kind="derived", source=source, mapping=mapping)
            possible[name] = set(mapping.values())
    attributes = tuple(draw(st.permutations(["activity", *names])))
    return ProcessModel("drawn", "case", attributes, "activity", activities[0], frozenset(ends), transitions, rules)


def _outcome(generator, model, n_traces, seed):
    try:
        log = generator(model, n_traces, seed)
    except ProcessModelError as exc:  # a walk past the limit
        return str(exc)
    return ([serialize_log(log, delimiter=d) for d in (",", "\t", "1", "t")],
            log.trace_lengths, log.vocabularies, log.codes)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(process_models(), st.integers(1, 25), st.integers(0, 2**40))
def test_generate_writes_the_reference_generators_log(model, n_traces, seed):
    assert _outcome(generate, model, n_traces, seed) == _outcome(reference_generate, model, n_traces, seed)


@pytest.mark.parametrize("n_traces, seed", [(1, 0), (1, 7), (200, 42), (2000, 7), (1000, 8)])
def test_generate_writes_the_reference_generators_shipping_log(n_traces, seed):
    model = default_shipping_model()
    assert _outcome(generate, model, n_traces, seed) == _outcome(reference_generate, model, n_traces, seed)


def test_drawn_models_hold_every_rule_kind_and_derivation_chains():
    seen = set()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow], database=None)
    @given(process_models())
    def collect(model):
        for rule in model.rules.values():
            seen.add(rule.kind if rule.kind != "pool" else f"{rule.scope}-pool")
            if rule.kind == "derived" and rule.source in model.rules and model.rules[rule.source].kind == "derived":
                seen.add("derived-from-derived")
        if any(len(targets) == 1 for targets in model.transitions.values()):
            seen.add("single-target")
        if model.attributes != ("activity", *model.rules):  # the rules are drawn in fill order
            seen.add("attributes-not-in-fill-order")

    collect()
    assert seen >= {*KINDS, "derived-from-derived", "single-target", "attributes-not-in-fill-order"}
