"""Built-in simlint rules.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Each module holds one invariant family; the
ids are stable and documented in ``docs/static-analysis.md``:

========  =================  ====================================================
id        name               invariant
========  =================  ====================================================
SIM001    determinism        no wall-clock / unseeded randomness in sim modules
SIM002    ordered-iteration  no unordered set/dict-keys iteration in sim modules
SIM003    pool-picklable     exception types must survive the process pool
SIM004    error-taxonomy     core/experiments raise repro.errors types
SIM005    metric-namespace   counter names live in registered namespaces
SIM006    mutable-default    no mutable default arguments
SIM007    float-counter      integer counters never accumulate float literals
SIM008    fast-parity        every _fast variant has a differential test
SIM009    event-registry     emitted events are declared in repro.obs.events
SIM010    branch-seam        every linted module builds branch units via the seam
SIM011    engine-seam        every linted module builds engines via build_engine
SIM012    policy-seam        engine hot path reads policy via the schedule seam
SIM013    service-hygiene    service handlers never swallow errors or block the loop
========  =================  ====================================================
"""

from repro.lint.rules import (  # noqa: F401  (import side effect: register)
    branchseam,
    conventions,
    defaults,
    determinism,
    engineseam,
    fastparity,
    floatcounter,
    ordering,
    picklable,
    policyseam,
    service,
    taxonomy,
)
