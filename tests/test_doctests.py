"""Run the doctests embedded in the library's public docstrings.

Keeps every usage example in the API documentation executable and true.
"""

import doctest

import pytest

import repro.datalog.hornsat
import repro.datalog.kernel
import repro.datalog.parser
import repro.datalog.plan
import repro.datalog.terms
import repro.elog.parser
import repro.elog.paths
import repro.html.entities
import repro.html.parser
import repro.html.policy
import repro.html.tokenizer
import repro.mso.parser
import repro.serve.cache
import repro.serve.executor
import repro.serve.faults
import repro.serve.metrics
import repro.serve.registry
import repro.serve.ring
import repro.serve.server
import repro.serve.supervisor
import repro.serve.transport
import repro.caterpillar.rewrite
import repro.caterpillar.syntax
import repro.structures
import repro.paper
import repro.tmnf.depth_index
import repro.trees.binary
import repro.trees.diff
import repro.trees.generate
import repro.trees.merkle
import repro.trees.node
import repro.trees.ranked
import repro.trees.snapshot
import repro.trees.stream
import repro.trees.unranked
import repro.wrap.extraction
import repro.wrap.output
import repro.wrap.serialize
import repro.wrap.visual

MODULES = [
    repro.structures,
    repro.trees.node,
    repro.trees.binary,
    repro.trees.snapshot,
    repro.trees.stream,
    repro.trees.unranked,
    repro.trees.ranked,
    repro.trees.generate,
    repro.trees.merkle,
    repro.trees.diff,
    repro.datalog.terms,
    repro.datalog.parser,
    repro.datalog.plan,
    repro.datalog.kernel,
    repro.datalog.hornsat,
    repro.mso.parser,
    repro.caterpillar.syntax,
    repro.caterpillar.rewrite,
    repro.elog.paths,
    repro.elog.parser,
    repro.html.entities,
    repro.html.tokenizer,
    repro.html.parser,
    repro.html.policy,
    repro.serve.cache,
    repro.serve.executor,
    repro.serve.faults,
    repro.serve.metrics,
    repro.serve.registry,
    repro.serve.ring,
    repro.serve.server,
    repro.serve.supervisor,
    repro.serve.transport,
    repro.wrap.extraction,
    repro.wrap.output,
    repro.wrap.serialize,
    repro.wrap.visual,
    repro.paper,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _tried = doctest.testmod(module, verbose=False)
    assert failures == 0
