# CLI smoke stage (registered as the cli_smoke ctest by CMakeLists):
# exercise isingrbm train -> list --verify -> sample -> eval on a tiny
# registry config, failing on any non-zero exit.  The list --verify
# step re-serializes every checkpoint and diffs the round-trip.  The
# fault-tolerance legs then run real processes: a torn-write trainer
# publishing into a live `serve` that loadgen probes, and hot-swap
# promotes through the canary gate under loadgen traffic, each
# byte-diffed against serve-bench.
#
#   cmake -DCLI=<isingrbm binary> -DWORK=<scratch dir> -P cli_smoke.cmake
#
# The file doubles as its own concurrent driver: -DMODE=torn-driver or
# -DMODE=hot-driver re-enters it as the last COMMAND of an
# execute_process pipeline beside a live serve process.  Every wait in
# a driver is for a condition (the port file, an epoch in `list`),
# never a fixed delay.

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "cli_smoke: pass -DCLI=<binary> -DWORK=<dir>")
endif()

function(run_step)
  execute_process(COMMAND ${ARGV}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(JOIN " " pretty ${ARGV})
  message(STATUS "cli_smoke: ${pretty}")
  if(out)
    message(STATUS "${out}")
  endif()
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: '${pretty}' failed (${code}): ${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

# Variant of run_step for steps that are *supposed* to exit non-zero
# (rolled-back promotes exit 2, rejected candidates exit 1).  STDERR
# <regex> also requires that message, for a code another failure could
# produce too; TIMEOUT <s> bounds a step that would run on (a server
# that accepted a flag it should have refused).  Like run_step, it
# returns the step's stdout in step_out.
function(run_step_expect expected)
  cmake_parse_arguments(PARSE_ARGV 1 opt "" "STDERR;TIMEOUT" "")
  set(timeout)
  if(opt_TIMEOUT)
    set(timeout TIMEOUT ${opt_TIMEOUT})
  endif()
  execute_process(COMMAND ${opt_UNPARSED_ARGUMENTS}
                  ${timeout}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(JOIN " " pretty ${opt_UNPARSED_ARGUMENTS})
  message(STATUS "cli_smoke (expect exit ${expected}): ${pretty}")
  if(out)
    message(STATUS "${out}")
  endif()
  if(NOT code EQUAL expected)
    message(FATAL_ERROR "cli_smoke: '${pretty}' exited ${code}, "
                        "expected ${expected}: ${err}")
  endif()
  if(opt_STDERR AND NOT err MATCHES "${opt_STDERR}")
    message(FATAL_ERROR "cli_smoke: '${pretty}' exited ${code} without "
                        "'${opt_STDERR}' on stderr: ${err}")
  endif()
  set(step_out "${out}" PARENT_SCOPE)
endfunction()

# ---------------------------------------------------------------------
# Driver modes; each sets the PORT_FILE and MODEL its helpers use.  A
# driver that fails first sends the Shutdown frame, so the serve beside
# it drains instead of holding the pipeline until its timeout.  A second
# argument continues the message.
function(driver_fail msg)
  execute_process(COMMAND ${CLI} loadgen --port-file ${PORT_FILE}
                  --model ${MODEL} --op reconstruct --requests 1
                  --shutdown
                  OUTPUT_QUIET ERROR_QUIET)
  message(FATAL_ERROR "cli_smoke: ${msg}${ARGN}")
endfunction()

# One dump of the probe corpus served over the socket (extra loadgen
# flags after the file name).
function(driver_dump out)
  execute_process(COMMAND ${CLI} loadgen --port-file ${PORT_FILE}
                  --model ${MODEL} --op reconstruct --requests 16
                  --rows 4 --steps 10 --seed 13 --connections 2
                  --out ${out} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE dump_out
                  ERROR_VARIABLE dump_err)
  message(STATUS "cli_smoke: loadgen --out ${out}: ${dump_out}")
  if(NOT code EQUAL 0)
    driver_fail("loadgen --out ${out} failed (${code}): ${dump_err}")
  endif()
endfunction()

function(driver_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
                  RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    driver_fail("${a} differs from ${b}")
  endif()
endfunction()

if(DEFINED MODE AND MODE STREQUAL "torn-driver")
  set(PORT_FILE ${WORK}/live.port)
  set(MODEL live)
  # Probe while the trainer publishes -- a probe fails until the first
  # loadable archive lands, and that is fine -- until `list` shows
  # epoch 4 at rest (while the torn archive lies on disk, `list` prints
  # its row as unreadable and exits 1).
  string(TIMESTAMP start "%s")
  set(listing "")
  while(NOT listing MATCHES "\nlive +[a-z_]+ +[^ ]+ +[0-9]+ +4 ")
    string(TIMESTAMP now "%s")
    math(EXPR waited "${now} - ${start}")
    if(waited GREATER 90)
      driver_fail("the registry never reached epoch 4")
    endif()
    execute_process(COMMAND ${CLI} loadgen --port-file ${PORT_FILE}
                    --model ${MODEL} --op reconstruct --requests 4 --rows 4
                    --connections 1
                    OUTPUT_QUIET ERROR_QUIET)
    execute_process(COMMAND ${CLI} list --registry ${WORK}/live-reg
                    OUTPUT_VARIABLE listing
                    ERROR_QUIET)
  endwhile()
  driver_dump(${WORK}/live-served.txt --shutdown)
  return()
endif()

if(DEFINED MODE AND MODE STREQUAL "hot-driver")
  set(PORT_FILE ${WORK}/hot.port)
  set(MODEL hot)
  driver_dump(${WORK}/hot-a.txt)
  driver_same(${WORK}/hot-a.txt ${WORK}/cand-a.txt)

  # cand-b promotes through the gate while paced traffic runs beside
  # it: every request is answered (by cand-a or cand-b), none fails.
  execute_process(
    COMMAND ${CLI} promote --registry ${WORK}/prom-reg --name hot
            --candidate ${WORK}/cands/cand-b.ckpt --tolerance 1000
    COMMAND ${CLI} loadgen --port-file ${PORT_FILE} --model hot
            --op reconstruct --requests 48 --rows 4 --steps 10 --seed 17
            --connections 2 --rate 400
    RESULTS_VARIABLE codes
    OUTPUT_VARIABLE swap_out
    ERROR_VARIABLE swap_err)
  message(STATUS "cli_smoke: promote cand-b under loadgen --rate: "
                 "${swap_out}")
  if(NOT codes STREQUAL "0;0" OR NOT swap_out MATCHES " 0 failed")
    driver_fail("promote under traffic failed (exit codes: ${codes}): "
                "${swap_err}")
  endif()
  driver_dump(${WORK}/hot-b.txt)
  driver_same(${WORK}/hot-b.txt ${WORK}/cand-b.txt)

  # An unpassable tolerance rolls back (exit 2) and a torn candidate is
  # rejected (exit 1); neither moves what 'hot' serves.  The rollback
  # process exits right after the breach, so its log must not promise
  # to resume shadowing.
  execute_process(COMMAND ${CLI} promote --registry ${WORK}/prom-reg
                  --name hot --candidate ${WORK}/cands/cand-a.ckpt
                  --tolerance -1
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE roll_out
                  ERROR_VARIABLE roll_err)
  if(NOT code EQUAL 2 OR NOT roll_out MATCHES "rollback: canary divergence")
    driver_fail("promote --tolerance -1 exited ${code}, expected a "
                "rollback (2): ${roll_out}")
  endif()
  if(NOT roll_err MATCHES "canary quarantined" OR
     roll_err MATCHES "resume shadowing")
    driver_fail("promote --tolerance -1 logged no breach, or a resume "
                "it never makes: ${roll_err}")
  endif()
  execute_process(COMMAND ${CLI} promote --registry ${WORK}/prom-reg
                  --name hot --candidate ${WORK}/cands/torn.ckpt
                  RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_QUIET)
  if(NOT code EQUAL 1)
    driver_fail("promote of a torn candidate exited ${code}, expected 1")
  endif()
  driver_dump(${WORK}/hot-c.txt --shutdown)
  driver_same(${WORK}/hot-c.txt ${WORK}/cand-b.txt)
  return()
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# Tiny but real: 120 synthetic MNIST-stand-in glyphs, a 12-hidden RBM,
# one CD epoch -- seconds of work, every layer exercised.
run_step(${CLI} train --registry ${WORK} --name smoke
         --data MNIST --samples 120 --hidden 12 --trainer cd
         --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK} --name smoke-dbn
         --data MNIST --samples 120 --family dbn --layers 12,8
         --trainer cd --epochs 1 --k 1)

# Train -> interrupt -> resume across all six families: a short run
# checkpoints, then --resume extends it.  The rbm leg also exercises
# --pcd (persistent chains through the train-state section),
# --checkpoint-every and the --monitor-out CSV.
run_step(${CLI} train --registry ${WORK} --name res-rbm
         --samples 120 --hidden 10 --epochs 2 --k 1 --pcd
         --checkpoint-every 1 --monitor-out ${WORK}/monitor.csv)
if(NOT EXISTS ${WORK}/monitor.csv)
  message(FATAL_ERROR "cli_smoke: --monitor-out wrote nothing")
endif()
run_step(${CLI} train --registry ${WORK} --name res-rbm --resume
         --samples 120 --epochs 3 --k 1 --pcd)
run_step(${CLI} train --registry ${WORK} --name res-class
         --family class_rbm --samples 120 --hidden 10 --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK} --name res-class --resume
         --samples 120 --epochs 2 --k 1)
run_step(${CLI} train --registry ${WORK} --name res-cf
         --family cf_rbm --users 30 --items 20 --hidden 8 --epochs 2)
run_step(${CLI} train --registry ${WORK} --name res-cf --resume
         --users 30 --items 20 --epochs 3)
run_step(${CLI} train --registry ${WORK} --name res-conv
         --family conv_rbm --samples 40 --filters 2 --filter-side 5
         --pool-grid 2 --epochs 1)
run_step(${CLI} train --registry ${WORK} --name res-conv --resume
         --samples 40 --epochs 2)
# DBN epochs are per layer and pinned by the archive (changing them
# would remap epochs onto the wrong layers), so the resume repeats the
# original --epochs; mid-stack resume is covered by test_train_session.
run_step(${CLI} train --registry ${WORK} --name res-dbn
         --family dbn --layers 10,6 --samples 120 --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK} --name res-dbn --resume
         --samples 120 --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK} --name res-dbm
         --family dbm --layers 10,6 --samples 80 --epochs 1
         --pretrain-epochs 1)
run_step(${CLI} train --registry ${WORK} --name res-dbm --resume
         --samples 80 --epochs 2 --pretrain-epochs 1)

# Checkpoint round-trip diff over everything just written -- including
# the archives that now carry train-state sections.
run_step(${CLI} list --registry ${WORK} --verify)

run_step(${CLI} sample --registry ${WORK} --model smoke
         --count 2 --burnin 5 --out ${WORK}/samples.txt)
if(NOT EXISTS ${WORK}/samples.txt)
  message(FATAL_ERROR "cli_smoke: sample --out wrote nothing")
endif()

# SIMD-tier determinism canary: the same train + sample run with the
# kernel tier pinned to generic (ISINGRBM_ISA, the one tier override)
# and with auto dispatch (AVX2/AVX-512 where the host has it) must be
# byte-identical end to end -- the tiers move time, never results.
# A second pinned leg runs the AVX2 table, which auto dispatch skips
# on an AVX-512 host (a host without AVX2+FMA warns and falls back to
# auto, so the leg still holds there).  "scalar" names no tier: a
# last sampling leg under ISINGRBM_ISA=scalar must warn that the name
# is unknown and print the auto-dispatched bytes.
run_step(${CLI} train --registry ${WORK} --name smoke-isa-auto
         --samples 120 --hidden 12 --epochs 1 --k 1)
run_step(${CLI} sample --registry ${WORK} --model smoke-isa-auto
         --count 2 --burnin 5 --seed 99
         --out ${WORK}/samples-isa-auto.txt)
file(READ ${WORK}/samples-isa-auto.txt isa_auto_bits)
foreach(tier generic avx2)
  run_step(${CMAKE_COMMAND} -E env ISINGRBM_ISA=${tier}
           ${CLI} train --registry ${WORK} --name smoke-isa-${tier}
           --samples 120 --hidden 12 --epochs 1 --k 1)
  run_step(${CMAKE_COMMAND} -E env ISINGRBM_ISA=${tier}
           ${CLI} sample --registry ${WORK} --model smoke-isa-${tier}
           --count 2 --burnin 5 --seed 99
           --out ${WORK}/samples-isa-${tier}.txt)
  file(READ ${WORK}/samples-isa-${tier}.txt isa_tier_bits)
  if(NOT isa_auto_bits STREQUAL isa_tier_bits)
    message(FATAL_ERROR "cli_smoke: forced-${tier} train+sample differs "
                        "from auto-dispatched SIMD tier (bit-identity "
                        "contract broken)")
  endif()
endforeach()
run_step_expect(0 ${CMAKE_COMMAND} -E env ISINGRBM_ISA=scalar
                ${CLI} sample --registry ${WORK} --model smoke-isa-auto
                --count 2 --burnin 5 --seed 99
                --out ${WORK}/samples-isa-scalar.txt
                STDERR "ISINGRBM_ISA='scalar' is not a known tier")
file(READ ${WORK}/samples-isa-scalar.txt isa_scalar_bits)
if(NOT isa_auto_bits STREQUAL isa_scalar_bits)
  message(FATAL_ERROR "cli_smoke: ISINGRBM_ISA=scalar differs from "
                      "auto dispatch (an unknown name must fall back "
                      "to the CPUID tier)")
endif()

# --early-stop plumbing: the flag trains with a monitor attached and
# must at minimum complete and checkpoint (whether it triggers depends
# on the gap trajectory).
run_step(${CLI} train --registry ${WORK} --name smoke-es
         --samples 120 --hidden 10 --epochs 2 --k 1 --early-stop 1)

run_step(${CLI} eval --registry ${WORK} --model smoke
         --data MNIST --samples 120 --head-epochs 5)

# ---------------------------------------------------------------------
# Fault-tolerance legs: the robustness layer under real process
# boundaries, driven by the ISINGRBM_FAULTS environment DSL.

# Transient-write retry: the first write of the archive fails
# (injected), and the session's save retry must still land the run.
run_step(${CMAKE_COMMAND} -E env ISINGRBM_FAULTS=failwrite:retry-smoke@1
         ${CLI} train --registry ${WORK} --name retry-smoke
         --samples 120 --hidden 10 --epochs 1 --k 1)
run_step(${CLI} list --registry ${WORK} --verify)

# A stdout reader that exits first: train writes its progress into a
# pipe whose reader exits at once without reading, so every flushed
# line after that fails.  The write must fail with EPIPE rather than
# kill the trainer: the run finishes, publishes its archive and exits
# 0 (the torn-write train | serve leg below relies on this: serve may
# drain and exit before the trainer prints its last line).
execute_process(
  COMMAND ${CLI} train --registry ${WORK}/pipe-reg --name a
          --samples 120 --hidden 10 --epochs 2 --k 1
  COMMAND ${CMAKE_COMMAND} -E true
  RESULTS_VARIABLE pipe_codes
  ERROR_VARIABLE pipe_err)
message(STATUS "cli_smoke: train into a pipe whose reader exited")
foreach(code IN LISTS pipe_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: train into a closed pipe failed "
                        "(exit codes: ${pipe_codes}): ${pipe_err}")
  endif()
endforeach()
if(NOT EXISTS ${WORK}/pipe-reg/a.ckpt)
  message(FATAL_ERROR "cli_smoke: train into a closed pipe published "
                      "no archive")
endif()
run_step(${CLI} list --registry ${WORK}/pipe-reg --verify)

# A torn archive fails its own `list` row, not the listing: with a
# 200-byte aaa.ckpt sorted first, the good archive is still listed and
# list exits 1.
file(COPY ${WORK}/pipe-reg/a.ckpt DESTINATION ${WORK}/torn-list)
file(RENAME ${WORK}/torn-list/a.ckpt ${WORK}/torn-list/good.ckpt)
file(READ ${WORK}/pipe-reg/a.ckpt torn_list_head LIMIT 200)
file(WRITE ${WORK}/torn-list/aaa.ckpt "${torn_list_head}")
run_step_expect(1 ${CLI} list --registry ${WORK}/torn-list)
if(NOT step_out MATCHES "\naaa +unreadable: [^\n]*truncated" OR
   NOT step_out MATCHES "\ngood +rbm +")
  message(FATAL_ERROR "cli_smoke: list over a torn archive did not list "
                      "both rows: ${step_out}")
endif()

# Continuous training under torn writes: a trainer publishes four
# per-epoch checkpoints of 'live' with the epoch-2 publish truncated
# mid-archive (a simulated torn write) into the registry a live serve
# answers from, while the driver probes it with loadgen.  The trailer
# checksum rejects the torn archive, the registry degrades to the
# epoch-1 model, and the first complete archive after it is served at
# once.  All three processes must exit 0, and once the registry is
# settled at epoch 4 the socket must serve its exact bytes.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ISINGRBM_FAULTS=truncate:live.ckpt=200@2
          ${CLI} train --registry ${WORK}/live-reg --name live
          --samples 120 --hidden 10 --epochs 4 --k 1
          --checkpoint-every 1 --epoch-sleep-ms 100
  COMMAND ${CLI} serve --registry ${WORK}/live-reg --port 0
          --port-file ${WORK}/live.port
  COMMAND ${CMAKE_COMMAND} -DCLI=${CLI} -DWORK=${WORK} -DMODE=torn-driver
          -P ${CMAKE_CURRENT_LIST_FILE}
  TIMEOUT 180
  RESULTS_VARIABLE live_codes
  OUTPUT_VARIABLE live_out
  ERROR_VARIABLE live_err)
message(STATUS "cli_smoke: torn-write train | serve | loadgen driver")
if(live_out)
  message(STATUS "${live_out}")
endif()
if(NOT live_codes STREQUAL "0;0;0")
  message(FATAL_ERROR "cli_smoke: torn-write leg failed (exit codes: "
                      "${live_codes}): ${live_err}")
endif()
run_step(${CLI} serve-bench --registry ${WORK}/live-reg --model live
         --op reconstruct --requests 16 --rows 4 --steps 10 --seed 13
         --reps 1 --out ${WORK}/live-settled.txt)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/live-served.txt ${WORK}/live-settled.txt)

# Hot swap through the canary gate against a running serve: cand-a
# publishes ungated (no incumbent), cand-b promotes under traffic, an
# unpassable tolerance rolls back and a torn candidate is rejected.
# Each served dump must equal serve-bench over the one model that
# should be live (the driver compares them).
run_step(${CLI} train --registry ${WORK}/cands --name cand-a
         --samples 120 --hidden 10 --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK}/cands --name cand-b
         --samples 120 --hidden 10 --epochs 2 --k 1)
foreach(cand cand-a cand-b)
  run_step(${CLI} serve-bench --registry ${WORK}/cands --model ${cand}
           --op reconstruct --requests 16 --rows 4 --steps 10 --seed 13
           --reps 1 --out ${WORK}/${cand}.txt)
endforeach()
file(READ ${WORK}/cands/cand-a.ckpt torn_head LIMIT 150)
file(WRITE ${WORK}/cands/torn.ckpt "${torn_head}")
run_step(${CLI} promote --registry ${WORK}/prom-reg --name hot
         --candidate ${WORK}/cands/cand-a.ckpt)
if(NOT step_out MATCHES "canary gate skipped")
  message(FATAL_ERROR "cli_smoke: the first promote (no incumbent) did "
                      "not report the gate skipped: ${step_out}")
endif()
execute_process(
  COMMAND ${CLI} serve --registry ${WORK}/prom-reg --port 0
          --port-file ${WORK}/hot.port
  COMMAND ${CMAKE_COMMAND} -DCLI=${CLI} -DWORK=${WORK} -DMODE=hot-driver
          -P ${CMAKE_CURRENT_LIST_FILE}
  TIMEOUT 180
  RESULTS_VARIABLE hot_codes
  OUTPUT_VARIABLE hot_out
  ERROR_VARIABLE hot_err)
message(STATUS "cli_smoke: hot swap under a live serve")
if(hot_out)
  message(STATUS "${hot_out}")
endif()
if(NOT hot_codes STREQUAL "0;0")
  message(FATAL_ERROR "cli_smoke: hot-swap leg failed (exit codes: "
                      "${hot_codes}): ${hot_err}")
endif()

# ---------------------------------------------------------------------
# Serving-cache legs: serve-bench replays the same deterministic
# workload twice in one process, so with a cache budget every rep-2
# request must hit; and the dumped response bytes must be identical
# with the cache on and off (the cache moves time, never bits).
execute_process(COMMAND ${CLI} serve-bench --registry ${WORK}
                --model smoke --op reconstruct --requests 16 --rows 4
                --reps 2 --cache-bytes 8000000
                --out ${WORK}/serve-cache.txt
                RESULT_VARIABLE code
                OUTPUT_VARIABLE cache_out
                ERROR_VARIABLE cache_err)
message(STATUS "cli_smoke: serve-bench cached rep-2 run")
message(STATUS "${cache_out}")
if(NOT code EQUAL 0)
  message(FATAL_ERROR "cli_smoke: cached serve-bench failed (${code}): "
                      "${cache_err}")
endif()
if(NOT cache_out MATCHES "cache: 16 hits")
  message(FATAL_ERROR "cli_smoke: rep 2 of a deterministic workload "
                      "did not fully hit the response cache")
endif()
run_step(${CLI} serve-bench --registry ${WORK} --model smoke
         --op reconstruct --requests 16 --rows 4 --reps 2
         --out ${WORK}/serve-nocache.txt)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/serve-cache.txt
         ${WORK}/serve-nocache.txt)

# ---------------------------------------------------------------------
# Untrusted CLI values: a port or deadline out of its range exits 1
# naming the flag, before anything binds or dials.  Unchecked, --port
# 70000 would wrap to 4464 (serve binding it, loadgen dialing it),
# --port abc would abort on an uncaught exception, and --deadline-ms
# -1 would send a 4294967295 ms deadline.
run_step_expect(1 ${CLI} loadgen --model smoke --port abc
                STDERR "--port must be a port in 1-65535")
run_step_expect(1 ${CLI} loadgen --model smoke --port 70000
                STDERR "--port must be a port in 1-65535")
run_step_expect(1 ${CLI} serve --registry ${WORK} --port 70000
                TIMEOUT 30 STDERR "--port must be a port in 0-65535")
# A port file that cannot be published (the path is a directory) exits
# 1 naming the flag, once the server has closed its socket, and leaves
# no temp file behind; unchecked, the rename threw out of serve, which
# aborted (134) and left <path>.tmp.
file(MAKE_DIRECTORY ${WORK}/port-dir)
run_step_expect(1 ${CLI} serve --registry ${WORK} --port 0
                --port-file ${WORK}/port-dir
                TIMEOUT 30 STDERR "--port-file: cannot publish the port")
if(EXISTS ${WORK}/port-dir.tmp)
  message(FATAL_ERROR "cli_smoke: a failed --port-file publish left "
                      "${WORK}/port-dir.tmp behind")
endif()
run_step_expect(1 ${CLI} loadgen --model smoke --port 1
                --deadline-ms -1 STDERR "--deadline-ms must be in")
# Integer flags past INT_MAX once wrapped through an int cast: --epochs
# 4294967298 trained 2 epochs and --burnin 4294967297 ran 1 sweep.
run_step_expect(1 ${CLI} train --registry ${WORK}/wrap-reg --name wrap
                --samples 120 --hidden 10 --epochs 4294967298
                STDERR "--epochs must be in 0-2147483647")
run_step_expect(1 ${CLI} sample --registry ${WORK} --model smoke
                --count 2 --burnin 4294967297
                STDERR "--burnin must be in 0-2147483647")

# ---------------------------------------------------------------------
# Networked serving legs: a real serve process on an ephemeral port, a
# seeded loadgen hammering it over 3 connections, and a byte-diff of
# the socket-served responses against the in-process serve-bench dump
# of the identical corpus.  The loadgen's --shutdown frame is what
# stops the server, so both exit codes prove the graceful-drain path.
execute_process(
  COMMAND ${CLI} serve --registry ${WORK} --port 0
          --port-file ${WORK}/net.port --cache-bytes 1048576
  COMMAND ${CLI} loadgen --port-file ${WORK}/net.port --model smoke
          --op reconstruct --requests 16 --rows 4 --steps 10 --seed 13
          --connections 3 --out ${WORK}/net-served.txt --shutdown
  TIMEOUT 120
  RESULTS_VARIABLE net_codes
  OUTPUT_VARIABLE net_out
  ERROR_VARIABLE net_err)
message(STATUS "cli_smoke: serve + loadgen over the socket")
if(net_out)
  message(STATUS "${net_out}")
endif()
foreach(code IN LISTS net_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: serve/loadgen leg failed "
                        "(exit codes: ${net_codes}): ${net_err}")
  endif()
endforeach()
run_step(${CLI} serve-bench --registry ${WORK} --model smoke
         --op reconstruct --requests 16 --rows 4 --steps 10 --seed 13
         --reps 1 --out ${WORK}/net-inproc.txt)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/net-served.txt ${WORK}/net-inproc.txt)

# Overload: a tiny admission budget against a saturating pipelined
# burst must shed with OVERLOADED replies -- not drop frames, not kill
# connections, not fail the client -- and still drain to exit 0.
execute_process(
  COMMAND ${CLI} serve --registry ${WORK} --port 0
          --port-file ${WORK}/net-over.port --max-pending-rows 8
  COMMAND ${CLI} loadgen --port-file ${WORK}/net-over.port
          --model smoke --op reconstruct --requests 64 --rows 4
          --steps 10 --seed 13 --connections 2 --shutdown
  TIMEOUT 120
  RESULTS_VARIABLE over_codes
  OUTPUT_VARIABLE over_out
  ERROR_VARIABLE over_err)
message(STATUS "cli_smoke: overloaded serve (admission budget 8 rows)")
if(over_out)
  message(STATUS "${over_out}")
endif()
foreach(code IN LISTS over_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: overload leg failed "
                        "(exit codes: ${over_codes}): ${over_err}")
  endif()
endforeach()
if(NOT over_out MATCHES "[1-9][0-9]* shed")
  message(FATAL_ERROR "cli_smoke: 64 pipelined requests against an "
                      "8-row budget shed nothing -- admission control "
                      "is not engaging")
endif()
if(NOT over_out MATCHES " 0 failed")
  message(FATAL_ERROR "cli_smoke: overload leg dropped or corrupted "
                      "frames (non-zero failed count)")
endif()
