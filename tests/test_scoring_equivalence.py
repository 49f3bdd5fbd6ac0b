"""Scoring through the compiled tables equals the per-factor reference exactly.

Scores, zero-factor counts, rankings, explanations and decompositions are
compared with ``==``, never a tolerance: the tables hold the floats that the
per-factor path computed, and the sums are taken the same way.
"""
import json
import math
import random
from dataclasses import replace
from itertools import accumulate, chain
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    FDEdge,
    Trace,
    Variable,
    build_k_context,
    build_mapping,
    default_shipping_model,
    explain,
    generate,
    inject_anomalies,
    learn_edbn,
    load_model,
    parse_log,
    rank_traces,
    save_model,
    score_prefix,
    score_trace,
    serialize_log,
)
from edbn.detect import score_log
from edbn import model as model_module
from edbn.model import FD_CHECK, RELATION, VALUE, ScoringTables

from reference_scoring import ReferenceScore, reference_context, reference_ranking
from test_parsing_equivalence import CHUNK_LINES, RAW_BODIES, delimited_logs, parse_at

CASES = [("shipping", 1), ("shipping", 2), ("cycle", 1), ("cycle", 2)]


def _shipping(k):
    process = default_shipping_model()
    train = generate(process, 600, 21)
    test = inject_anomalies(generate(process, 150, 22), 0.5, 23).log
    return learn_edbn(train, k, 0.99), test


def _cycle_trace(tid, activities, rng):
    return Trace(tid, tuple(Event(f"{tid}-{i}", (a, rng.choice("uv"))) for i, a in enumerate(activities)))


def _cycle(k):
    # A cycles a -> b -> c from "a", so A at lag 1 determines A: an FD whose
    # source is padding at every trace's first event
    rng = random.Random(3)
    schema = AttributeSchema(("A", "B"), "tid")
    train = [_cycle_trace(f"n{t}", ["abc"[i % 3] for i in range(rng.randint(3, 7))], rng) for t in range(40)]
    odd = ["abca", "acb", "abz", "ab", "bca", "aabc", "abcabca"]
    test = [_cycle_trace(f"t{t}", list(acts), rng) for t, acts in enumerate(odd)]
    test.append(Trace("w", (Event("w-0", ("a", "w")), Event("w-1", ("b", "u")))))
    return learn_edbn(EventLog(schema, tuple(train)), k, 0.99), EventLog(schema, tuple(test))


@pytest.fixture(scope="module")
def cases():
    build = {"shipping": _shipping, "cycle": _cycle}
    return {(name, k): build[name](k) for name, k in CASES}


def _assert_equals_reference(entry, ref):
    assert entry.log_score == ref.log_score
    assert entry.score == ref.score
    assert entry.zero_factor_count == ref.zero_factor_count
    assert entry.decomposition == ref.decomposition
    every = len(entry.factor_values)
    for top_n in (1, 3, every):
        assert explain(entry, top_n) == ref.explain(top_n)


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_compiled_scoring_equals_per_factor_reference(cases, case):
    # the batch ranking, and score_trace and score_prefix, which code the events themselves
    model, log = cases[case]
    references = {t.trace_id: ReferenceScore(model, t) for t in log.traces}
    ranking = rank_traces(model, log)
    assert ranking.trace_ids() == reference_ranking(references.values())
    for entry in ranking:
        _assert_equals_reference(entry, references[entry.trace_id])
    for trace in log.traces:
        _assert_equals_reference(score_trace(model, trace), references[trace.trace_id])
        for n in range(1, len(trace.events) + 1):
            prefix = trace.events[:n]
            ref = ReferenceScore(model, Trace(trace.trace_id, prefix))
            _assert_equals_reference(score_prefix(model, prefix, trace.trace_id), ref)


def test_cases_reach_every_factor_branch(cases):
    # each fallback of the tables is compared above on at least one factor
    reached = set()
    for model, log in cases.values():
        pos = {v: i for i, v in enumerate(model.variables)}
        for trace in log.traces:
            for i in range(len(trace.events)):
                row = reference_context(model, trace.events, i)
                for attr in model.schema.names:
                    x = row[pos[Variable(attr, 0)]]
                    if x not in model.active_domains[attr]:
                        reached.add("unseen value")
                    cpt = model.cpts[attr]
                    if cpt.parents:
                        cfg = tuple(row[pos[p]] for p in cpt.parents)
                        if cfg not in cpt.rows:
                            reached.add("unseen parents")
                        elif x not in cpt.rows[cfg]:
                            reached.add("unseen value in a seen row")
                    for m in [fd for fd in model.fd_mappings if fd.edge.target.attr == attr]:
                        source = row[pos[m.edge.source]]
                        if source == PADDING:
                            reached.add("padded FD source")
                        elif m.map.get(source, x) != x:
                            reached.add("FD violation")
    assert reached == {
        "unseen value",
        "unseen parents",
        "unseen value in a seen row",
        "padded FD source",
        "FD violation",
    }


def _traces(draw, prefix, alphabet, n_attrs):
    return [
        Trace(f"{prefix}{t}", tuple(
            Event(f"{prefix}{t}-{i}", tuple(draw(st.sampled_from(alphabet)) for _ in range(n_attrs)))
            for i in range(draw(st.integers(1, 5)))
        ))
        for t in range(draw(st.integers(1, 4)))
    ]


@st.composite
def imposed_models(draw):
    """A model with imposed CPT parents and FD mappings, some FD sources also CPT
    parents of their target, and a test log with values training never saw."""
    k, n_attrs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    schema = AttributeSchema(tuple(f"a{i}" for i in range(n_attrs)), "tid")
    train = EventLog(schema, _traces(draw, "n", "ab", n_attrs))
    test = _traces(draw, "t", "abc", n_attrs)
    # a copy of the first trace: equal keys in different traces
    test.append(Trace("copy", tuple(Event(f"copy-{e.id}", e.values) for e in test[0].events)))
    variables = [Variable(a, lag) for lag in range(k, -1, -1) for a in schema.names]
    legal = [(s, t) for s in variables for t in variables if t.lag == 0 and s != t]
    structure = draw(st.sets(st.sampled_from(legal), max_size=5))
    fds = draw(st.sets(st.sampled_from(sorted(structure)))) if structure else set()
    fds |= draw(st.sets(st.sampled_from(legal), max_size=3))
    base = learn_edbn(train, k, 1.0, structure=structure)  # a threshold of 1 accepts no FD
    ctx = build_k_context(train, k)
    model = replace(base, fd_mappings=tuple(build_mapping(ctx, FDEdge(s, t, 1.0)) for s, t in sorted(fds)))
    assert model.dag.edges == base.dag.edges | fds
    return model, base, EventLog(schema, test)


@settings(max_examples=150, deadline=None)
@given(imposed_models(), st.sampled_from([1, 2, 3, 5, 512]))
def test_batch_ranking_equals_per_trace_scoring(case, chunk_events):
    # rank_traces reuses factor blocks across events, traces and chunks, and score_trace
    # across the events of one trace; the per-factor reference computes every factor.
    # Two models in a row: no block may leak from one model's ranking into another's.
    *models, log = case
    for model in models:
        with patch.object(model_module, "_CHUNK_EVENTS", chunk_events):
            ranking = rank_traces(model, log)
            assert sorted(ranking.trace_ids()) == sorted(log.trace_ids)
            for entry in ranking:
                trace = log.trace_by_id(entry.trace_id)
                ref = ReferenceScore(model, trace)
                _assert_equals_reference(entry, ref)
                _assert_equals_reference(score_trace(model, trace), ref)


# --- runs of key-sharing attributes ----------------------------------------------------


def _assert_model_codes(model):
    """Return, per attribute, the tables' value -> model code dict, after checking that it gives PADDING 0 and
    each other value that the model names for the attribute (in its active domain, CPT cells, CPT
    configurations, FD map keys or FD map values) a code of its own, and nothing else a code."""
    named = {a: {PADDING} | model.active_domains[a] for a in model.schema.names}
    for attr, cpt in model.cpts.items():
        for cfg, counts in cpt.rows.items():
            named[attr] |= set(counts)
            for parent, x in zip(cpt.parents, cfg):
                named[parent.attr].add(x)
    for m in model.fd_mappings:
        named[m.edge.source.attr] |= set(m.map)
        named[m.edge.target.attr] |= set(m.map.values())
    codes = dict(zip(model.schema.names, model.scoring_tables._coders))
    for attr, code in codes.items():
        assert set(code) == named[attr] and code[PADDING] == 0
        assert sorted(code.values()) == list(range(len(code)))  # UNSEEN, len(code), is no value's code
    return codes


def _assert_runs_follow_the_walk(model):
    """Return the runs' keys, after checking that ScoringTables grouped the attributes in schema order
    into runs whose members each share a key position with the run's earlier members, that each member
    reads its value, CPT parents and FD sources through the run's key with the value table, CPT rows and
    FD maps rebuilt here from the model over its model codes, and that the members' factors, concatenated,
    give ``labels``."""
    tables, pos = model.scoring_tables, {v: i for i, v in enumerate(model.variables)}
    codes = _assert_model_codes(model)
    attrs = iter(model.schema.names)
    labels, previous = [], []
    for key, run in tables._blocks:
        union = []  # the k-context positions of the run's members so far, in order
        for x_at, values, unseen_value, relation, fds in run:
            attr = next(attrs)
            code = codes[attr]
            cpt, mappings = model.cpts[attr], [m for m in model.fd_mappings if m.edge.target.attr == attr]
            parents = tuple(map(pos.__getitem__, cpt.parents))
            own = [pos[Variable(attr, 0)], *parents, *(pos[m.edge.source] for m in mappings)]
            if union:
                assert not set(own).isdisjoint(union)  # it shares a position with the run's earlier members
            else:
                assert set(own).isdisjoint(previous)  # it starts a run: it shares none with the run before
            union += own
            rate = model.new_value[attr]
            assert key[x_at] == own[0]
            assert values == {code[x]: float(1 - rate) for x in model.active_domains[attr]}
            assert unseen_value == float(rate)
            labels.append((attr, VALUE, None))
            if cpt.parents:
                labels.append((attr, RELATION, None))
                parents_of, rows, unseen_parents = relation
                rate = model.new_relation[attr]
                assert parents_of(key) == parents
                assert rows == {tuple(codes[p.attr][x] for p, x in zip(cpt.parents, cfg)):
                                {code[x]: float(1 - rate) * (c / cpt.row_totals[cfg]) for x, c in counts.items()}
                                for cfg, counts in cpt.rows.items()}
                assert unseen_parents == float(rate)
            else:
                assert relation is None
            assert [(key[at], expected_of) for at, expected_of, *_ in fds] == [
                (pos[m.edge.source], {codes[m.edge.source.attr][x]: code[y] for x, y in m.map.items()}) for m in mappings]
            assert [f[2:] for f in fds] == [(float(1 - m.violation_rate), float(m.violation_rate if m.map else 1 - m.violation_rate))
                                            for m in mappings]
            labels += [(attr, FD_CHECK, m.edge.source) for m in mappings]
        assert key == tuple(dict.fromkeys(union))
        previous = key
    assert next(attrs, None) is None
    assert tuple(labels) == tables.labels
    return [key for key, _ in tables._blocks]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shipping_attributes_are_scored_in_runs_of_key_sharing_attributes(k):
    # the 13 attributes' keys: 7 read activity and the user columns, 3 item and 2 customer
    model = learn_edbn(generate(default_shipping_model(), 2000, 7), k, 0.99)
    keys = _assert_runs_follow_the_walk(model)
    assert [len(key) for key in keys] == [8, 5, 4, 2]
    for before, after in zip(keys, keys[1:]):
        assert set(before).isdisjoint(after)


@settings(max_examples=150, deadline=None)
@given(imposed_models())
def test_imposed_models_are_scored_in_runs_of_key_sharing_attributes(case):
    # a later member of a run may share a position with the run before it: only the
    # member that starts a run must share none
    for model in case[:2]:
        _assert_runs_follow_the_walk(model)


def _unique_value(log, is_unique, attr="item"):
    # the value of attr of every event for which is_unique(trace index, event index) holds
    # becomes a value no other event has, like an amount or a timestamp column
    col = log.schema.names.index(attr)
    return EventLog(log.schema, tuple(
        Trace(t.trace_id, tuple(
            Event(e.id, e.values[:col] + (f"u-{e.id}",) + e.values[col + 1:]) if is_unique(ti, ei) else e
            for ei, e in enumerate(t.events)
        ))
        for ti, t in enumerate(log.traces)
    ))


LOW_REUSE = {
    "every event": lambda t, e: True,
    "every other event": lambda t, e: e % 2 == 0,
    "second half of the log": lambda t, e: t >= 150,
    "none": lambda t, e: False,
}


def _assert_scored_as_per_trace(model, ranking, log):
    # each trace scored as the per-factor reference scores it alone
    assert sorted(ranking.trace_ids()) == sorted(log.trace_ids)
    for entry in ranking:
        trace = log.trace_by_id(entry.trace_id)
        assert entry.event_ids == tuple(e.id for e in trace.events)
        _assert_equals_reference(entry, ReferenceScore(model, trace))


@pytest.mark.parametrize("is_unique", LOW_REUSE.values(), ids=LOW_REUSE.keys())
def test_batch_ranking_never_scores_event_by_event_when_keys_rarely_repeat(monkeypatch, is_unique):
    # an attribute unique per event, like an amount, brings a value the model never saw at
    # every event; all such values share one model code, so the blocks computed stay near
    # the unmodified log's count, far below one per event
    process = default_shipping_model()
    model = learn_edbn(generate(process, 300, 41), 1, 0.99)
    unmodified = generate(process, 300, 42)
    log = _unique_value(unmodified, is_unique)
    assert len(log.event_ids) > 3000
    block, blocks = ScoringTables._block, []
    monkeypatch.setattr(ScoringTables, "_block", lambda *args: blocks.append(1) or block(*args))
    rank_traces(model, unmodified)
    distinct = len(blocks)
    blocks.clear()
    ranking = rank_traces(model, log)
    assert len(blocks) <= distinct * 3 // 2 < len(log.event_ids) // 3
    monkeypatch.undo()
    _assert_scored_as_per_trace(model, ranking, log)


def test_a_log_of_byte_codes_scores_against_a_model_of_wider_codes():
    # the model names more items than a byte holds, or 255, which with PADDING's code leave only the
    # unseen code, 256, past a byte: the log's item codes, bytes, are translated to model codes by a
    # list where every other column goes through bytes.translate
    process = default_shipping_model()
    train = generate(process, 40, 61)
    items, starts = train.columns[train.schema.names.index("item")], list(accumulate(train.trace_lengths, initial=0))
    log = _unique_value(generate(process, 30, 62), lambda t, e: e == 0)  # an item the model never saw per trace
    assert type(log.codes[log.schema.names.index("item")]) is bytes and len(items) > 256
    for named in (len(items), 255):
        # the items of the first `unique` events made unique, so that the model names `named` items
        unique = next(m for m in range(len(items) + 1) if m + len(set(items[m:])) == named)
        model = learn_edbn(_unique_value(train, lambda t, e: starts[t] + e < unique), 1, 0.99)
        assert len(model.active_domains["item"]) == named
        _assert_scored_as_per_trace(model, rank_traces(model, log), log)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_scores_read_the_reference_factors_on_shipping_models(k):
    # explain bounds its search by block minima; on a log with item unique per event every trace
    # holds zeros, so at k=1 every score is 0 and explain's bound is 0 for every top_n up to the zeros
    model, test = _shipping(k)
    unique = _unique_value(test, lambda t, e: True)
    for log in (test, unique):
        ranking = rank_traces(model, log)
        for entry in ranking:
            trace = log.trace_by_id(entry.trace_id)
            ref = ReferenceScore(model, trace)
            for scored in (entry, score_trace(model, trace)):
                assert scored.factor_values == tuple(f.value for ev in ref.decomposition for f in ev.factors)
                _assert_equals_reference(scored, ref)
    if k == 1:
        assert {entry.score for entry in ranking} == {0.0}


def _chunk_log(lengths, b_values="uv"):
    # A cycles a -> b -> c from "a" (A at lag 1 determines A, with a padded source at
    # each trace start); B is random
    rng = random.Random(len(lengths))
    return EventLog(AttributeSchema(("A", "B"), "tid"), tuple(
        Trace(f"t{t}", tuple(Event(f"t{t}-{i}", ("abc"[i % 3], rng.choice(b_values))) for i in range(n)))
        for t, n in enumerate(lengths)
    ))


CHUNKED = {
    # traces whose events straddle each chunk boundary of _CHUNK_EVENTS
    "straddling": [7] * 200,
    # one trace longer than a chunk, between short ones
    "longer than a chunk": [3, 2, model_module._CHUNK_EVENTS * 2 + 5, 1, 4],
    # traces shorter than k, next to longer ones
    "shorter than k": [1, 2, 1, 3, 1, 1, 2, 5, 1],
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lengths", CHUNKED.values(), ids=CHUNKED.keys())
def test_batch_ranking_is_exact_across_chunks_and_padding(lengths, k):
    # the test log's B brings a value training never saw; the same traces are scored
    # as a log of traces and as that log parsed
    model = learn_edbn(_chunk_log([4, 1, 6, 2, 5] * 8), k, 0.99)
    assert model.fd_mappings and any(model.cpts[a].parents for a in ("A", "B"))
    built = _chunk_log(lengths, "uvw")
    parsed = parse_log(serialize_log(built), AttributeSchema(("A", "B"), "tid", event_id_column="event_id"))
    for log in (built, parsed):
        _assert_scored_as_per_trace(model, rank_traces(model, log), built)


def _model_naming_values_outside_its_domains():
    """A loaded model whose file names, outside active_domains, a CPT cell and a CPT configuration value
    (B given A), an FD map key and an FD map value (A at lag 1 determines A)."""
    model = learn_edbn(_chunk_log([4, 1, 6, 2, 5] * 8), 1, 0.99, structure={(Variable("A", 0), Variable("B", 0))})
    doc = json.loads(save_model(model))
    assert doc["active_domains"] == {"A": ["a", "b", "c"], "B": ["u", "v"]}
    (fd,) = doc["fd_mappings"]
    assert (fd["source"], fd["target"], fd["map"]) == (["A", 1], ["A", 0], {"a": "b", "b": "c", "c": "a"})
    fd["map"].update(ka="c", kb="zc")
    (b_cpt,) = [cpt for cpt in doc["cpts"] if cpt["attribute"] == "B"]
    row = next(row for row in b_cpt["rows"] if row["parents"] == ["a"])
    row["counts"]["zb"] = 6
    row["total"] += 6
    b_cpt["rows"].append({"parents": ["za"], "counts": {"u": 2}, "total": 2})
    return load_model(json.dumps(doc))


# each named value next to a value that no part of the model names
OUTSIDE = {
    "cell": [("a", "zb"), ("a", "zy")],
    "configuration": [("za", "u"), ("zy", "u")],
    "key, violated": [("ka", "u"), ("a", "u")],
    "key, agreed": [("ka", "u"), ("c", "v")],
    "value, agreed": [("kb", "u"), ("zc", "v")],
    "value, violated": [("kb", "u"), ("zq", "v")],
}


def test_values_a_model_names_outside_its_active_domains_score_as_the_reference():
    # each such value keeps a model code of its own: coded as unseen, the cell, the configuration's
    # row and the two FD checks would read another factor
    model = _model_naming_values_outside_its_domains()
    log = EventLog(model.schema, tuple(
        Trace(name, tuple(Event(f"{name}-{i}", values) for i, values in enumerate(rows))) for name, rows in OUTSIDE.items()))
    ranking = rank_traces(model, log)
    assert ranking.trace_ids() == reference_ranking(ReferenceScore(model, t) for t in log.traces)
    for entry in ranking:
        trace = log.trace_by_id(entry.trace_id)
        _assert_equals_reference(entry, ReferenceScore(model, trace))
        for n in range(1, len(trace.events) + 1):
            prefix = Trace(trace.trace_id, trace.events[:n])
            _assert_equals_reference(score_prefix(model, prefix), ReferenceScore(model, prefix))


# --- a parsed log, scored from its codes -------------------------------------------


def _logs_to_score():
    """(text, schema, parse options) as the parser's equivalence tests draw them."""
    written = delimited_logs().map(lambda case: (case[0], case[1], {
        "delimiter": case[2], "header": case[3], "column_names": None if case[3] else case[4]}))
    raw = RAW_BODIES.map(lambda body: ("a,b\n" + body, AttributeSchema(("a",), "b"), {}))
    return st.one_of(written, raw)


@settings(max_examples=200, deadline=None)
@given(_logs_to_score(), CHUNK_LINES, st.integers(1, 3))
def test_batch_ranking_of_a_parsed_log_equals_that_of_its_traces(case, chunk_lines, k):
    # padded values and trace ids, interleaved traces and an order column are coded
    # as they are read; the first half of the traces trains the model, so the others
    # bring values it never saw
    text, schema, options = case
    log = parse_at(chunk_lines, text, schema, **options)
    if log is None:
        return
    built = EventLog(schema, log.traces)
    model = learn_edbn(EventLog(schema, log.traces[: (len(log.traces) + 1) // 2]), k, 0.99)
    parsed_ranking, built_ranking = rank_traces(model, log), rank_traces(model, built)
    assert parsed_ranking.trace_ids() == built_ranking.trace_ids()
    for entry, ref in zip(parsed_ranking, built_ranking):
        assert entry.event_ids == ref.event_ids
        assert entry.log_score == ref.log_score
        assert entry.score == ref.score
        assert entry.factor_values == ref.factor_values
        for top_n in (1, 3):
            assert explain(entry, top_n) == explain(ref, top_n)


# --- fixed-point log sums ------------------------------------------------------------


def _factor_floats():
    """Floats a factor can take: any in [0, 1], a few ulps below 1.0, tiny rates and exact zeros."""
    below_one = st.integers(1, 64).map(lambda n: 1.0 - n * 2.0 ** -53)
    tiny = st.one_of(st.floats(5e-324, 1e-290), st.integers(2, 10 ** 9).map(lambda n: 1 / n))
    return st.one_of(st.floats(0.0, 1.0), below_one, tiny, st.just(0.0), st.just(1.0))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(_factor_floats(), min_size=1, max_size=5), min_size=1, max_size=13),
       st.lists(_factor_floats(), max_size=20))
def test_fixed_point_log_sums_equal_fsum_bit_for_bit(blocks, other_rates):
    # an event's factors, split into its attributes' blocks, among the other floats the model's factors take
    factors = list(chain.from_iterable(blocks))
    scale, fixed = model_module._fixed_point([*other_rates, *factors])
    total = sum(sum(map(fixed.__getitem__, block)) for block in blocks)  # as ScoringTables sums an event
    assert (scale * total).hex() == math.fsum(map(model_module._log, factors)).hex()
    # the least shift that gives the lowest mantissa bit of every nonzero finite log a weight of at least 1
    logs = {r: math.log(r) for r in [*other_rates, *factors] if 0.0 < r < 1.0}
    shift = max((53 - math.frexp(x)[1] for x in logs.values()), default=0)
    assert scale == 2.0 ** -shift
    assert all(fixed[r] == math.ldexp(x, shift) and type(fixed[r]) is int for r, x in logs.items())


def test_fixed_point_shift_of_the_nearest_float_below_one():
    # the smallest nonzero |log| bounds the shift: log(1 - 2 ** -53) is about -2 ** -53
    scale, fixed = model_module._fixed_point([1.0 - 2.0 ** -53, 0.5, 0.0, 1.0])
    assert scale == 2.0 ** -105
    assert fixed[0.0] == -math.inf and fixed[1.0] == 0
    assert fixed[0.5] == math.ldexp(math.log(0.5), 105)


UNIQUE = {
    "shipping": (None, None),
    "item unique per event": ("item", lambda t, e: True),
    # user_id is read by the widest run's key; an unseen user_id violates an FD into it,
    # so only every other event's is unique, to leave events with a finite log
    "user_id unique at every other event": ("user_id", lambda t, e: e % 2 == 0),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("unique", UNIQUE.values(), ids=UNIQUE.keys())
def test_score_log_equals_score_trace_bit_for_bit(k, unique):
    # a log coded by vocabulary (score_log) and a trace coded value by value (ScoringTables.score_events,
    # under score_trace) give the same blocks (factors, fixed-point log, smallest factor) and event logs,
    # and every event's log from the blocks' fixed-point sums equals math.fsum of the reference factors' logs
    process = default_shipping_model()
    model = learn_edbn(generate(process, 300, 51), k, 0.99)
    log = inject_anomalies(generate(process, 120, 52), 0.3, 53).log
    attr, is_unique = unique
    if attr:
        log = _unique_value(log, is_unique, attr)
    tables = model.scoring_tables
    scored = score_log(model, log)
    per_trace = tables.score_traces(log.codes, log.vocabularies, log.trace_lengths)
    assert len(scored) == len(log.traces)
    event_logs = []
    for trace, entry, (blocks, logs) in zip(log.traces, scored, per_trace):
        ref = score_trace(model, trace)
        assert (entry.trace_id, entry.event_ids) == (ref.trace_id, ref.event_ids)
        assert entry.log_score.hex() == ref.log_score.hex()
        assert entry.score.hex() == ref.score.hex()
        assert entry.factor_values == ref.factor_values
        assert entry.zero_factor_count == ref.zero_factor_count == ref.factor_values.count(0.0)
        event_blocks, event_logs_of_trace = tables.score_events(trace.events)
        assert blocks == event_blocks
        assert [x.hex() for x in logs] == [x.hex() for x in event_logs_of_trace]
        reference = ReferenceScore(model, trace).decomposition
        fsums = [math.fsum(math.log(f.value) if f.value else -math.inf for f in ev.factors) for ev in reference]
        assert [x.hex() for x in event_logs_of_trace] == [x.hex() for x in fsums]
        event_logs += logs
    # both kinds of event are compared: with a zero factor and without
    assert {x == -math.inf for x in event_logs} == {True, False}
