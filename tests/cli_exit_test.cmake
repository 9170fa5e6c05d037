# Exercises the crsat_cli exit-code contract end to end:
#   0  success, no findings
#   1  findings (unsatisfiable classes, lint diagnostics) or failure
#   2  usage error (bad subcommand, malformed flag value, an implies
#      query naming an unknown class, relationship or role)
#   3  resource limit tripped (deadline / compound budget / memory budget)
#
# Run as: cmake -DCRSAT_CLI=<binary> -DCRSAT_SOURCE_DIR=<repo> -P this-file

if(NOT DEFINED CRSAT_CLI OR NOT DEFINED CRSAT_SOURCE_DIR)
  message(FATAL_ERROR "pass -DCRSAT_CLI=... and -DCRSAT_SOURCE_DIR=...")
endif()

set(SCHEMAS "${CRSAT_SOURCE_DIR}/examples/schemas")

function(expect_exit expected)
  execute_process(
    COMMAND ${CRSAT_CLI} ${ARGN}
    RESULT_VARIABLE actual
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual EQUAL expected)
    string(JOIN " " argv ${ARGN})
    message(FATAL_ERROR
      "crsat_cli ${argv}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()

# Usage errors -> 2. (Flags follow the schema path: `check <file> [flags]`.)
expect_exit(2)
expect_exit(2 frobnicate)
expect_exit(2 check)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --timeout-ms abc)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --timeout-ms)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --max-compounds -7)

# Clean runs -> 0 (with and without guard flags; generous limits must not
# change the verdict).
expect_exit(0 check "${SCHEMAS}/meeting.cr")
expect_exit(0 check "${SCHEMAS}/meeting.cr" --json)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --timeout-ms 60000
  --max-compounds 1000000 --max-memory-mb 1024)

# Findings -> 1.
expect_exit(1 check "${SCHEMAS}/figure1.cr")
expect_exit(1 lint "${SCHEMAS}/lint_demo.cr")
expect_exit(1 check "${SCHEMAS}/no_such_file.cr")
expect_exit(1 model "${SCHEMAS}/figure1.cr" C)

# `debug` on a satisfiable class refuses: exit 1, nothing on stdout and
# the InvalidArgument line on stderr, by default and with
# CRSAT_NO_INCREMENTAL=1.
set(refusal "InvalidArgument: class 'Speaker' is satisfiable; there is no ")
string(APPEND refusal "unsat core\n")
foreach(no_incremental 0 1)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CRSAT_NO_INCREMENTAL=${no_incremental}
      ${CRSAT_CLI} debug "${SCHEMAS}/meeting.cr" Speaker
    RESULT_VARIABLE refusal_exit
    OUTPUT_VARIABLE refusal_out
    ERROR_VARIABLE refusal_err)
  if(NOT refusal_exit EQUAL 1 OR NOT refusal_out STREQUAL "" OR
     NOT refusal_err STREQUAL refusal)
    message(FATAL_ERROR "CRSAT_NO_INCREMENTAL=${no_incremental} crsat_cli "
      "debug meeting.cr Speaker: exit ${refusal_exit}, stdout "
      "'${refusal_out}', stderr '${refusal_err}'")
  endif()
endforeach()

# implies: an answered query is 0; an unknown name or a wrong word count
# is a bad request (2), the same code crsatd's client exits with.
expect_exit(0 implies "${SCHEMAS}/meeting.cr" isa Speaker Discussant)
expect_exit(2 implies "${SCHEMAS}/meeting.cr" isa Nope Speaker)
expect_exit(2 implies "${SCHEMAS}/meeting.cr" card Discussant Holds)

# --witness keeps the verdict-driven exit code: certified witness on a
# satisfiable schema, nothing to witness on an all-unsat one, and bad
# renderer names are usage errors.
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness=json --json)
expect_exit(0 check "${SCHEMAS}/meeting.cr" --witness=dot)
expect_exit(1 check "${SCHEMAS}/figure1.cr" --witness)
expect_exit(2 check "${SCHEMAS}/meeting.cr" --witness=yaml)

# A resource limit tripped *during witness synthesis* downgrades to the
# already-computed SAT verdict (exit 0, witness replaced by the trip
# report); the same limit tripping before the verdict still exits 3.
expect_exit(0 check "${SCHEMAS}/witness_heavy.cr" --witness --max-memory-mb 1)
expect_exit(0 check "${SCHEMAS}/witness_heavy.cr" --witness=json --json
  --max-memory-mb 1)
expect_exit(3 check "${SCHEMAS}/witness_heavy.cr" --witness --timeout-ms 0)

# Resource trips -> 3, in both output modes.
expect_exit(3 check "${SCHEMAS}/meeting.cr" --timeout-ms 0)
expect_exit(3 check "${SCHEMAS}/meeting.cr" --max-compounds 5)
expect_exit(3 check "${SCHEMAS}/meeting.cr" --json --max-compounds 5)
expect_exit(3 lint "${SCHEMAS}/lint_demo.cr" --timeout-ms 0)

# Injected faults via CRSAT_FAILPOINTS: a simulated allocation failure is
# a resource limit (exit 3) even with no guard flag configured, and a
# recoverable fault (warm-start rejection) degrades without changing the
# verdict or exit code.
function(expect_exit_env expected env)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${env} ${CRSAT_CLI} ${ARGN}
    RESULT_VARIABLE actual
    OUTPUT_QUIET ERROR_QUIET)
  if(NOT actual EQUAL expected)
    string(JOIN " " argv ${ARGN})
    message(FATAL_ERROR
      "${env} crsat_cli ${argv}: expected exit ${expected}, got ${actual}")
  endif()
endfunction()
expect_exit_env(3 "CRSAT_FAILPOINTS=alloc/expansion=nth:1"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(3 "CRSAT_FAILPOINTS=alloc/simplex=nth:1"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(0 "CRSAT_FAILPOINTS=lp/warm_start_reject=every:2"
  check "${SCHEMAS}/meeting.cr")
expect_exit_env(1 "CRSAT_FAILPOINTS=incremental/force_cold"
  check "${SCHEMAS}/figure1.cr")

# The user-facing rung 0 -> 1 switch: CRSAT_NO_INCREMENTAL=1 sends every
# layer down its cold reference path, which may cost more but must reach
# the same verdicts, so the exit code and the "classes" array of
# `check --json` match the incremental run's.
function(classes_json out_var output)
  string(FIND "${output}" "\"classes\": [" begin)
  string(FIND "${output}" "\"strongly_satisfiable\"" end)
  if(begin EQUAL -1 OR end LESS begin)
    message(FATAL_ERROR "check --json printed no classes array:\n${output}")
  endif()
  math(EXPR length "${end} - ${begin}")
  string(SUBSTRING "${output}" ${begin} ${length} classes)
  set(${out_var} "${classes}" PARENT_SCOPE)
endfunction()
foreach(schema figure1 meeting finitely_unsat_pair)
  execute_process(
    COMMAND ${CRSAT_CLI} check "${SCHEMAS}/${schema}.cr" --json
    RESULT_VARIABLE incremental_exit
    OUTPUT_VARIABLE incremental_out
    ERROR_QUIET)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env CRSAT_NO_INCREMENTAL=1
      ${CRSAT_CLI} check "${SCHEMAS}/${schema}.cr" --json
    RESULT_VARIABLE cold_exit
    OUTPUT_VARIABLE cold_out
    ERROR_QUIET)
  if(NOT incremental_exit EQUAL cold_exit)
    message(FATAL_ERROR "CRSAT_NO_INCREMENTAL=1 check ${schema}.cr --json: "
      "exit ${cold_exit}, incremental run exited ${incremental_exit}")
  endif()
  classes_json(incremental_classes "${incremental_out}")
  classes_json(cold_classes "${cold_out}")
  if(NOT incremental_classes STREQUAL cold_classes)
    message(FATAL_ERROR "CRSAT_NO_INCREMENTAL=1 check ${schema}.cr --json "
      "changed the verdicts:\n${cold_classes}\nincremental:\n"
      "${incremental_classes}")
  endif()
endforeach()

# Schema debugging is locked byte for byte: for every unsatisfiable class
# of every example schema that `check` accepts, `debug` exits 0 and prints
# exactly tests/golden/<schema>.<Class>.debug (core order, constraint
# texts, repair suggestions), both by default and with
# CRSAT_NO_INCREMENTAL=1, where no probe takes the Lenzerini-Nobili stage.
# Every golden file must be reached.
set(GOLDEN "${CRSAT_SOURCE_DIR}/tests/golden")
file(GLOB golden_files RELATIVE "${GOLDEN}" "${GOLDEN}/*.debug")
set(reached_goldens "")
file(GLOB schema_files "${SCHEMAS}/*.cr")
foreach(schema_file ${schema_files})
  get_filename_component(schema "${schema_file}" NAME_WE)
  execute_process(
    COMMAND ${CRSAT_CLI} check "${schema_file}"
    OUTPUT_VARIABLE check_out
    ERROR_QUIET)
  string(REGEX MATCHALL "  UNSATISFIABLE  [^\n]+" unsat_lines "${check_out}")
  foreach(line ${unsat_lines})
    string(REPLACE "  UNSATISFIABLE  " "" class "${line}")
    set(golden_name "${schema}.${class}.debug")
    if(NOT EXISTS "${GOLDEN}/${golden_name}")
      message(FATAL_ERROR "no golden file tests/golden/${golden_name} for "
        "unsatisfiable class ${class} of ${schema}.cr")
    endif()
    list(APPEND reached_goldens "${golden_name}")
    file(READ "${GOLDEN}/${golden_name}" expected)
    foreach(no_incremental 0 1)
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E env CRSAT_NO_INCREMENTAL=${no_incremental}
          ${CRSAT_CLI} debug "${schema_file}" "${class}"
        RESULT_VARIABLE debug_exit
        OUTPUT_VARIABLE debug_out
        ERROR_QUIET)
      if(NOT debug_exit EQUAL 0 OR NOT debug_out STREQUAL expected)
        message(FATAL_ERROR "CRSAT_NO_INCREMENTAL=${no_incremental} crsat_cli "
          "debug ${schema}.cr ${class}: exit ${debug_exit}, output differs "
          "from tests/golden/${golden_name}:\n${debug_out}")
      endif()
    endforeach()
  endforeach()
endforeach()
list(SORT golden_files)
list(SORT reached_goldens)
if(NOT golden_files STREQUAL reached_goldens)
  message(FATAL_ERROR "golden debug files ${golden_files} do not match the "
    "unsatisfiable example classes ${reached_goldens}")
endif()

# JSON output is locked byte for byte by tests/golden/*.json. For every
# example schema that parses: `check --json --threads 1` (<schema>.check),
# `check --backend=saturation --json` (.saturation), `lint --json` (.lint)
# and, when it is under 4 KiB, `check --json --witness=json --threads 1`
# (.witness). Also lint on lint_demo.cr, the 10-seed conformance and chaos
# reports, and a tripped compound budget (meeting.trip). Every
# "elapsed_ms" value is masked on both sides. Every golden JSON file must
# be reached. The files pin solver counters too, so a change that moves
# a counter re-records them.
file(GLOB golden_json RELATIVE "${GOLDEN}" "${GOLDEN}/*.json")
set(reached_json "")
# Compares the stdout of `crsat_cli ARGN` with tests/golden/<name>. With a
# nonzero `size_limit`, an output of at least that many bytes is not
# pinned.
function(expect_golden_json name size_limit)
  execute_process(
    COMMAND ${CRSAT_CLI} ${ARGN}
    OUTPUT_VARIABLE actual
    ERROR_QUIET)
  string(LENGTH "${actual}" size)
  if(size_limit GREATER 0 AND NOT size LESS size_limit)
    return()
  endif()
  string(JOIN " " argv ${ARGN})
  if(NOT EXISTS "${GOLDEN}/${name}")
    message(FATAL_ERROR "no golden file tests/golden/${name} for crsat_cli "
      "${argv}")
  endif()
  file(READ "${GOLDEN}/${name}" expected)
  set(elapsed "\"elapsed_ms\": [^,}]*")
  string(REGEX REPLACE "${elapsed}" "\"elapsed_ms\": masked" expected
    "${expected}")
  string(REGEX REPLACE "${elapsed}" "\"elapsed_ms\": masked" actual
    "${actual}")
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "crsat_cli ${argv}: output differs from "
      "tests/golden/${name}:\n${actual}")
  endif()
  set(reached_json ${reached_json} ${name} PARENT_SCOPE)
endfunction()
foreach(schema_file ${schema_files})
  get_filename_component(schema "${schema_file}" NAME_WE)
  execute_process(
    COMMAND ${CRSAT_CLI} check "${schema_file}"
    OUTPUT_VARIABLE check_out
    ERROR_QUIET)
  if(check_out STREQUAL "")
    continue()  # Not a schema (a state file, or lint_demo's empty range).
  endif()
  expect_golden_json(${schema}.check.json 0
    check "${schema_file}" --json --threads 1)
  expect_golden_json(${schema}.saturation.json 0
    check "${schema_file}" --backend=saturation --json)
  expect_golden_json(${schema}.lint.json 0 lint "${schema_file}" --json)
  expect_golden_json(${schema}.witness.json 4096
    check "${schema_file}" --json --witness=json --threads 1)
endforeach()
expect_golden_json(lint_demo.lint.json 0
  lint "${SCHEMAS}/lint_demo.cr" --json)
expect_golden_json(conform.json 0 conform --seeds 10 --json)
expect_golden_json(conform.chaos.json 0 conform --chaos-seeds 10 --json)
expect_golden_json(meeting.trip.json 0
  check "${SCHEMAS}/meeting.cr" --json --max-compounds 5)
list(SORT golden_json)
list(SORT reached_json)
if(NOT golden_json STREQUAL reached_json)
  message(FATAL_ERROR "golden JSON files ${golden_json} do not match the "
    "outputs checked ${reached_json}")
endif()

message(STATUS "cli_exit_test: all exit-code expectations held")
