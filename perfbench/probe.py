"""Fresh-interpreter probe for the benchmark's set-up and memory figures.

Times ``import lie2`` plus ``RunConfig(...).validate()`` of one config (which
loads the presentation).  Given a pass, it then runs it and reports the
stripped reports and the process's peak resident memory.  Last it times the
machine-speed reference of ``reference.py``, against which ``run.py`` scales
the set-up time.  ``run.py`` starts
it as ``python3 probe.py '<json request>'`` and reads one JSON line back.
"""

import json
import resource
import sys
import time


def config(kw: dict):
    import lie2
    return lie2.RunConfig(**{**kw, "suites": tuple(kw.get("suites", ("all",)))})


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    start = time.perf_counter()
    import lie2  # noqa: F401  (timed: this is the set-up a user pays)
    config(request["setup"]).validate()
    setup_s = time.perf_counter() - start
    reports = []
    if request["pass"]:
        from lie2.suites import run, strip_wall_time
        reports = [json.dumps(strip_wall_time(run(config(kw))), sort_keys=True)
                   for kw in request["pass"]]
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the machine-speed reference runs last, so it affects neither figure above
    from reference import settled_reference
    print(json.dumps({"setup_s": setup_s, "reports": reports, "maxrss_kib": maxrss_kib,
                      "reference_s": settled_reference()}))


if __name__ == "__main__":
    main()
