"""End-to-end check of `tmedb run --trace-out` on the paper trace.

A serial (--threads 0) FR-EEDCB run with 2000 Monte-Carlo trials must
produce a Perfetto trace that still holds the dts_build span, splits Steiner
into its steiner_terminal_sweep, steiner_density_scan,
steiner_forward_dijkstra and steiner_finalize sub-phases, whose
first span has non-zero length (the tracing epoch is pinned before it
opens), and whose metrics report no span dropped to ring overflow.

usage: trace_out_test.py TMEDB TRACE WORKDIR
"""
import json
import subprocess
import sys


def fail(message):
    sys.exit("trace_out_test: " + message)


def main():
    tmedb, trace, workdir = sys.argv[1:4]
    trace_out = workdir + "/trace_out_test.perfetto.json"
    metrics_out = workdir + "/trace_out_test.metrics.json"
    subprocess.run(
        [tmedb, "run", trace, "--algorithm", "FR-EEDCB", "--deadline", "6000",
         "--trials", "2000", "--threads", "0", "--trace-out", trace_out,
         "--metrics-out", metrics_out],
        check=True, stdout=subprocess.DEVNULL)

    with open(trace_out) as f:
        spans = [e for e in json.load(f)["traceEvents"]
                 if e["ph"] in ("B", "E")]
    opened = {e["name"] for e in spans if e["ph"] == "B"}
    for name in ("dts_build", "steiner_terminal_sweep",
                 "steiner_density_scan", "steiner_forward_dijkstra",
                 "steiner_finalize"):
        if name not in opened:
            fail("no %s span in the trace" % name)

    # B/E pairs nest LIFO per thread track: the first span ends at the first
    # event on its track that brings the depth back to zero.
    first = spans[0]
    depth = 0
    for e in spans:
        if e["tid"] != first["tid"]:
            continue
        depth += 1 if e["ph"] == "B" else -1
        if depth == 0:
            duration = e["ts"] - first["ts"]
            break
    else:
        fail("first span %s never closes" % first["name"])
    if not duration > 0:
        fail("first span %s has duration %s" % (first["name"], duration))

    with open(metrics_out) as f:
        drops = json.load(f)["metrics"]["counters"].get("tveg.obs.span_drops")
    if drops != 0:
        fail("tveg.obs.span_drops is %s, expected 0" % drops)
    print("first span %s lasts %.1f us; dts_build and Steiner sub-phases "
          "present; no drops"
          % (first["name"], duration))


if __name__ == "__main__":
    main()
