"""Worst-case-optimal natural joins with a fractional-cover size-bound toolkit.

The package is organized bottom-up:

* ``relational`` — attributes, relations, hypergraphs, join queries
  (at least one relation each), and the brute-force ``oracle_join``
  every fast path is checked against.
* ``trie`` — sorted trie indexes, the operation-count meter, and the
  two metered steps of the ``engine`` recursion: a descent along a trie
  path and a k-way intersection of sorted child lists.
* ``simplex`` / ``bounds`` — exact covering LPs (a fraction-free
  integer tableau with rational results), the fractional-cover size
  bound, and the group-decomposition audit.
* ``engine`` — the recursive join with nprr / leapfrog /
  fixed-sequence partitioning.
* ``plans`` — classical two-way join plans and the bound-driven
  join-project evaluator, for comparison runs.
* ``rewrite`` — conjunctive queries with simple functional
  dependencies, rewritten until the plain size bound is tight; its
  ``HeadJoin`` is also the one binder from stored tables to a
  ``JoinQuery``.
* ``instances`` — reproducible generators for the worked examples and
  the adversarial families used in benchmarks.
* ``cli`` — the ``agmjoin`` command: run, bound, bench, gen.
"""

from .bounds import (
    BoundReport,
    FractionalCover,
    agm_bound,
    cover,
    decomposition_check,
    edge_subset,
    is_cover,
    log2_fraction,
    min_cover_lp,
)
from .engine import (
    JoinRun,
    PartitionStrategy,
    fixed_sequence_strategy,
    leapfrog_strategy,
    nprr_strategy,
    run_join,
)
from .errors import (
    AgmJoinError,
    GeneratorParameterError,
    InfeasibleCoverError,
    InvalidPartitionError,
    MalformedCoverError,
    PlanError,
    QueryFormatError,
    SchemaError,
    TimeBudgetExceeded,
)
from .instances import (
    InstanceBundle,
    gen_chase_witness,
    gen_clique_query,
    gen_lw_bad,
    gen_lw_query,
    gen_random,
    gen_triangle_bad,
)
from .plans import (
    JoinRecord,
    PlanTrace,
    PlanTree,
    agm_join_project_traced,
    execute_plan,
    join,
    leaf,
)
from .relational import (
    Attribute,
    Hypergraph,
    JoinQuery,
    Relation,
    attrs_sorted,
    join_query,
    make_attrs,
    oracle_join,
    project,
    relation,
    semijoin,
)
from .rewrite import (
    Atom,
    ConjunctiveQuery,
    HeadJoin,
    SimpleFD,
    chase,
    cq_bound,
    drop_repeated_vars,
    evaluate_cq,
    fd_extend,
    normalize,
    project_to_head,
)
from .trie import (
    CostMeter,
    TrieIndex,
    build_trie,
    count,
    descend,
    intersect,
    iter_leaves,
)

__all__ = [name for name in dir() if not name.startswith("_")]
