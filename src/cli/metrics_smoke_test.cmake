# generate → run --metrics-out/--trace → validate the exported JSON:
# it must parse, carry the tveg-obs-1 schema, and list every pipeline
# phase under phase_totals regardless of which phases actually ran.
execute_process(
  COMMAND ${TMEDB} generate --kind haggle --nodes 8 --horizon 4000
          --seed 5 --out ${WORKDIR}/metrics_smoke.trace
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed: ${rc}")
endif()

execute_process(
  COMMAND ${TMEDB} run ${WORKDIR}/metrics_smoke.trace --algorithm FR-EEDCB
          --source 0 --deadline 3500 --trials 100 --trace
          --metrics-out ${WORKDIR}/metrics_smoke.json
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --metrics-out failed: ${rc}")
endif()
if(NOT err MATCHES "phase tree")
  message(FATAL_ERROR "--trace printed no phase tree on stderr: ${err}")
endif()

file(READ ${WORKDIR}/metrics_smoke.json doc)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON schema ERROR_VARIABLE json_err GET "${doc}" schema)
  if(json_err)
    message(FATAL_ERROR "metrics JSON does not parse: ${json_err}")
  endif()
  if(NOT schema STREQUAL "tveg-obs-1")
    message(FATAL_ERROR "unexpected schema: ${schema}")
  endif()
  foreach(phase dts_build aux_graph steiner prune nlp_allocation monte_carlo)
    string(JSON wall ERROR_VARIABLE json_err
           GET "${doc}" phase_totals ${phase})
    if(json_err)
      message(FATAL_ERROR "phase_totals missing '${phase}': ${json_err}")
    endif()
  endforeach()
  string(JSON dts_builds ERROR_VARIABLE json_err
         GET "${doc}" metrics counters tveg.dts.builds)
  if(json_err OR dts_builds LESS 1)
    message(FATAL_ERROR "counter tveg.dts.builds missing or zero")
  endif()
  # The Workbench memoizes both channel views, so the memo counters show.
  string(JSON memo_entries ERROR_VARIABLE json_err
         GET "${doc}" metrics counters tveg.cache.entries)
  if(json_err OR memo_entries LESS 1)
    message(FATAL_ERROR "counter tveg.cache.entries missing or zero")
  endif()
else()
  # Pre-3.19 fallback: textual checks only.
  foreach(phase dts_build aux_graph steiner prune nlp_allocation monte_carlo)
    if(NOT doc MATCHES "\"${phase}\"")
      message(FATAL_ERROR "phase_totals missing '${phase}'")
    endif()
  endforeach()
endif()

# The CSV flavor of --metrics-out.
execute_process(
  COMMAND ${TMEDB} run ${WORKDIR}/metrics_smoke.trace --algorithm EEDCB
          --source 0 --deadline 3500 --trials 50
          --metrics-out ${WORKDIR}/metrics_smoke.csv
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --metrics-out csv failed: ${rc}")
endif()
file(READ ${WORKDIR}/metrics_smoke.csv csv)
if(NOT csv MATCHES "kind,name,count")
  message(FATAL_ERROR "metrics CSV missing header: ${csv}")
endif()
