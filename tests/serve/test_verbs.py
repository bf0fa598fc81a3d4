"""The verb registry drives the server, the client and ``repro query``.

Each test here is parametrized over :data:`repro.query.verbs.VERBS` (or
checks that it covers all of it), so a new verb is covered by adding its
registry entry and one row to ``PARAMS`` / ``CLI_FORMS``:

* **wire parity** — a served body minus ``degraded`` is byte-identical to
  ``protocol.dumps`` of the verb's codec on an in-process engine run;
* **CLI parity** — ``repro query ... --remote`` prints exactly what the
  local command prints, and a request the engine refuses exits with the
  local exit code and message;
* **completeness** — the server, ``ServeClient`` and ``repro query`` reach
  every verb.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.cli import main
from repro.errors import QueryError, ServeError, StoreError
from repro.query import QueryEngine
from repro.query.verbs import (
    VERBS,
    AggParams,
    AnomalyParams,
    DriftParams,
    KNNParams,
    MatchParams,
    PrivateAggParams,
    Verb,
)
from repro.serve import ServeClient, protocol

from .conftest import N_SAMPLES, fleet_values

QUERIES = fleet_values(seed=11)[:2, :N_SAMPLES]

#: Per verb: default params, then one set with every optional field moved.
PARAMS = {
    "knn": [
        KNNParams(QUERIES),
        KNNParams(QUERIES, k=3, use_index=False, refine_chunk=4,
                  exclude_ids=[0, 2]),
    ],
    "match": [
        MatchParams("a{2,} *"),
        MatchParams("h{2,} * a", meters=[1, 3, 5]),
    ],
    "agg": [AggParams(), AggParams(meters=[0, 1, 7], level=3)],
    "anomaly": [AnomalyParams(), AnomalyParams(meters=[2, 4, 6, 8])],
    "drift": [DriftParams(), DriftParams(meters=[9, 1, 5])],
    "private_agg": [
        PrivateAggParams(),
        PrivateAggParams(meters=list(range(8)), level=2, k_anon=3,
                         epsilon=2.0, seed=9),
    ],
}

#: ``repro query`` forms whose local and remote output must match; ``Q`` is
#: replaced by a query CSV.
CLI_FORMS = [
    ["agg", "--level", "4"],
    ["agg", "--k-anon", "3", "--noise", "2.0"],
    ["match", "--pattern", "a{2,} *"],
    ["anomaly", "--top", "4"],
    ["drift", "--top", "3"],
    ["knn", "--query-csv", "Q", "--k", "3", "--stats"],
]


def _cases():
    return [
        pytest.param(name, params, id=f"{name}-{('default', 'set')[i]}")
        for name, sets in PARAMS.items() for i, params in enumerate(sets)
    ]


@pytest.mark.parametrize("name,params", _cases())
def test_served_body_is_the_codec_of_an_engine_run(
    name, params, server, client, fleet_dir
):
    kwargs = {f.name: getattr(params, f.name) for f in fields(params)}
    served = dict(getattr(client, name)("fleet", **kwargs))
    assert served.pop("degraded") is False
    with QueryEngine.open(fleet_dir) as engine:
        local = VERBS[name].answer(engine, params)
    assert protocol.dumps(served) == protocol.dumps(local)


@pytest.fixture()
def query_csv(tmp_path):
    path = tmp_path / "queries.csv"
    np.savetxt(path, QUERIES, delimiter=",")
    return path


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("form", CLI_FORMS, ids=lambda f: " ".join(f[:3]))
def test_remote_cli_prints_what_local_prints(
    form, server, fleet_dir, query_csv, capsys
):
    verb, *flags = [str(query_csv) if arg == "Q" else arg for arg in form]
    local = _stdout(capsys, ["query", verb, str(fleet_dir), *flags])
    remote = _stdout(
        capsys, ["query", verb, "fleet", *flags, "--remote", server.url]
    )
    assert local and remote == local


@pytest.fixture()
def short_query_csv(tmp_path):
    path = tmp_path / "short.csv"
    np.savetxt(path, QUERIES[:, :-1], delimiter=",")
    return path


@pytest.mark.parametrize("form", [
    ["agg", "--level", "99"],
    ["knn", "--query-csv", "S", "--k", "3"],
], ids=lambda f: " ".join(f[:3]))
def test_remote_cli_exit_code_matches_local(
    form, server, fleet_dir, short_query_csv, capsys
):
    verb, *flags = [str(short_query_csv) if arg == "S" else arg for arg in form]
    local = main(["query", verb, str(fleet_dir), *flags])
    local_err = capsys.readouterr().err
    remote = main(["query", verb, "fleet", *flags, "--remote", server.url])
    remote_err = capsys.readouterr().err
    assert (remote, remote_err) == (local, local_err)
    assert local == 1 and local_err.startswith("error: ")


@pytest.mark.parametrize("kwargs,local_type,code", [
    ({"level": 99}, QueryError, "query.invalid"),
    ({"meters": [10 ** 6]}, StoreError, "store.invalid"),
])
def test_engine_refusal_decodes_to_the_local_error(
    client, kwargs, local_type, code
):
    with pytest.raises(local_type) as info:
        client.agg("fleet", **kwargs)
    error = info.value
    assert (error.code, error.status, error.exit_code) == (code, 400, 1)
    assert isinstance(error, ServeError)
    assert client.retries_total == 0


def test_registry_covers_every_front_end(server, client, monkeypatch,
                                         fleet_dir, query_csv, capsys):
    assert set(PARAMS) == set(VERBS)
    for name, verb in VERBS.items():
        assert callable(getattr(ServeClient, name))
        # The server answers it: the default-params body is a 200.
        assert "degraded" in client.query("fleet", name, PARAMS[name][0])

    reached = []
    answer = Verb.answer

    def spy(self, *args, **kwargs):
        reached.append(self.name)
        return answer(self, *args, **kwargs)

    monkeypatch.setattr(Verb, "answer", spy)
    for form in CLI_FORMS:
        verb, *flags = [str(query_csv) if arg == "Q" else arg for arg in form]
        _stdout(capsys, ["query", verb, str(fleet_dir), *flags])
    assert set(reached) == set(VERBS)


@pytest.mark.parametrize("argv,message", [
    (["drift", "fleet", "--baseline", "old.rsymx"], "local-only"),
    (["knn", "fleet", "--query-id", "1"], "--remote needs --query-csv"),
])
def test_remote_refuses_local_only_flags(argv, message, server, capsys):
    assert main(["query", *argv, "--remote", server.url]) == 1
    assert message in capsys.readouterr().err
