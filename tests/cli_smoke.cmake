# CLI smoke stage (registered as the cli_smoke ctest by CMakeLists):
# exercise isingrbm train -> list --verify -> sample -> eval on a tiny
# registry config, failing on any non-zero exit.  The list --verify
# step re-serializes every checkpoint and diffs the round-trip.
#
#   cmake -DCLI=<isingrbm binary> -DWORK=<scratch dir> -P cli_smoke.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "cli_smoke: pass -DCLI=<binary> -DWORK=<dir>")
endif()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

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
endfunction()

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
# The scalar float pipeline rides the same contract, so a third
# sampling leg pins ISINGRBM_ISA=scalar against the auto-dispatched
# model.
run_step(${CLI} train --registry ${WORK} --name smoke-isa-auto
         --samples 120 --hidden 12 --epochs 1 --k 1)
run_step(${CMAKE_COMMAND} -E env ISINGRBM_ISA=generic
         ${CLI} train --registry ${WORK} --name smoke-isa-generic
         --samples 120 --hidden 12 --epochs 1 --k 1)
run_step(${CLI} sample --registry ${WORK} --model smoke-isa-auto
         --count 2 --burnin 5 --seed 99
         --out ${WORK}/samples-isa-auto.txt)
run_step(${CMAKE_COMMAND} -E env ISINGRBM_ISA=generic
         ${CLI} sample --registry ${WORK} --model smoke-isa-generic
         --count 2 --burnin 5 --seed 99
         --out ${WORK}/samples-isa-generic.txt)
run_step(${CMAKE_COMMAND} -E env ISINGRBM_ISA=scalar
         ${CLI} sample --registry ${WORK} --model smoke-isa-auto
         --count 2 --burnin 5 --seed 99
         --out ${WORK}/samples-isa-scalar.txt)
file(READ ${WORK}/samples-isa-auto.txt isa_auto_bits)
file(READ ${WORK}/samples-isa-generic.txt isa_generic_bits)
file(READ ${WORK}/samples-isa-scalar.txt isa_scalar_bits)
if(NOT isa_auto_bits STREQUAL isa_generic_bits)
  message(FATAL_ERROR "cli_smoke: forced-generic train+sample differs "
                      "from auto-dispatched SIMD tier (bit-identity "
                      "contract broken)")
endif()
if(NOT isa_auto_bits STREQUAL isa_scalar_bits)
  message(FATAL_ERROR "cli_smoke: scalar float pipeline differs from "
                      "the packed SIMD tiers (bit-identity contract "
                      "broken)")
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

# Variant of run_step for steps that are *supposed* to exit non-zero
# (rolled-back promotes exit 2, rejected candidates exit 1).  STDERR
# <regex> also requires that message, for a code another failure could
# produce too; TIMEOUT <s> bounds a step that would run on (a server
# that accepted a flag it should have refused).
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
endfunction()

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
# 0 (the concurrent train + serve-loop leg below relies on this when
# serve-loop exits on seeing epoch 4).
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

# Continuous training under torn writes: a trainer publishes four
# per-epoch checkpoints of 'live' with the epoch-2 publish truncated
# mid-archive (a simulated torn write), while a concurrently running
# serve-loop probes the same registry with a fixed seeded request.
# The serve-loop must never die, must never serve the torn archive
# (the trailer checksum rejects it and the registry degrades to the
# epoch-1 model), and must eventually observe epoch 4.  The two
# COMMANDs below run concurrently (execute_process pipelines them);
# the trainer is upstream so the serve-loop is the last reader
# standing.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env ISINGRBM_FAULTS=truncate:live.ckpt=200@2
          ${CLI} train --registry ${WORK}/live-reg --name live
          --samples 120 --hidden 10 --epochs 4 --k 1
          --checkpoint-every 1 --epoch-sleep-ms 120
  COMMAND ${CLI} serve-loop --registry ${WORK}/live-reg --model live
          --passes 400 --interval-ms 15 --rows 4 --seed 7
          --until-epoch 4 --out-dir ${WORK}/live-A
  RESULTS_VARIABLE live_codes
  OUTPUT_VARIABLE live_out
  ERROR_VARIABLE live_err)
message(STATUS "cli_smoke: concurrent torn-write train + serve-loop")
if(live_out)
  message(STATUS "${live_out}")
endif()
foreach(code IN LISTS live_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: concurrent train/serve-loop leg "
                        "failed (exit codes: ${live_codes}): "
                        "${live_err}")
  endif()
endforeach()

# Bit-identity across the churn: the same request against the settled
# registry must produce the same bytes the live run recorded for
# epoch 4.  Hot-swapping moves *when* a model serves, never what bits
# a request produces.
run_step(${CLI} serve-loop --registry ${WORK}/live-reg --model live
         --passes 3 --interval-ms 5 --rows 4 --seed 7
         --out-dir ${WORK}/live-B)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/live-A/epoch-4.txt ${WORK}/live-B/epoch-4.txt)

# Hot-swap promote with a mid-stream swap: candidate archives at epoch
# 1 and epoch 2, a first promote with no incumbent (canary skipped),
# then a serve-loop watching 'hot' while a delayed concurrent promote
# swaps the epoch-2 candidate in underneath it.
run_step(${CLI} train --registry ${WORK}/cands --name cand-a
         --samples 120 --hidden 10 --epochs 1 --k 1)
run_step(${CLI} train --registry ${WORK}/cands --name cand-b
         --samples 120 --hidden 10 --epochs 2 --k 1)
run_step(${CLI} promote --registry ${WORK}/prom-reg --name hot
         --candidate ${WORK}/cands/cand-a.ckpt)
execute_process(
  COMMAND ${CMAKE_COMMAND} -DCLI=${CLI} -DDELAY=1
          -DREGISTRY=${WORK}/prom-reg -DNAME=hot
          -DCANDIDATE=${WORK}/cands/cand-b.ckpt -DTOLERANCE=1000
          -P ${CMAKE_CURRENT_LIST_DIR}/cli_smoke_promote.cmake
  COMMAND ${CLI} serve-loop --registry ${WORK}/prom-reg --model hot
          --passes 400 --interval-ms 10 --rows 4 --seed 7
          --until-epoch 2 --out-dir ${WORK}/prom-A
  RESULTS_VARIABLE prom_codes
  OUTPUT_VARIABLE prom_out
  ERROR_VARIABLE prom_err)
message(STATUS "cli_smoke: mid-stream promote under a live serve-loop")
if(prom_out)
  message(STATUS "${prom_out}")
endif()
foreach(code IN LISTS prom_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: mid-stream promote leg failed "
                        "(exit codes: ${prom_codes}): ${prom_err}")
  endif()
endforeach()
run_step(${CLI} serve-loop --registry ${WORK}/prom-reg --model hot
         --passes 3 --interval-ms 5 --rows 4 --seed 7
         --out-dir ${WORK}/prom-B)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/prom-A/epoch-2.txt ${WORK}/prom-B/epoch-2.txt)

# Canary rollback under a live serve-loop: a negative tolerance makes
# the gate unpassable, so the mid-stream promote must refuse to ship
# (exit 2) while the serve-loop keeps serving cand-b undisturbed.
execute_process(
  COMMAND ${CMAKE_COMMAND} -DCLI=${CLI} -DDELAY=0.2 -DEXPECT=2
          -DREGISTRY=${WORK}/prom-reg -DNAME=hot
          -DCANDIDATE=${WORK}/cands/cand-a.ckpt -DTOLERANCE=-1
          -P ${CMAKE_CURRENT_LIST_DIR}/cli_smoke_promote.cmake
  COMMAND ${CLI} serve-loop --registry ${WORK}/prom-reg --model hot
          --passes 60 --interval-ms 10 --rows 4 --seed 7
          --out-dir ${WORK}/prom-roll
  RESULTS_VARIABLE roll_codes
  OUTPUT_VARIABLE roll_out
  ERROR_VARIABLE roll_err)
message(STATUS "cli_smoke: mid-stream canary rollback")
if(roll_out)
  message(STATUS "${roll_out}")
endif()
foreach(code IN LISTS roll_codes)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "cli_smoke: mid-stream rollback leg failed "
                        "(exit codes: ${roll_codes}): ${roll_err}")
  endif()
endforeach()
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/prom-A/epoch-2.txt ${WORK}/prom-roll/epoch-2.txt)

# A torn candidate is rejected outright (exit 1) and never published.
file(READ ${WORK}/cands/cand-a.ckpt torn_head LIMIT 150)
file(WRITE ${WORK}/cands/torn.ckpt "${torn_head}")
run_step_expect(1 ${CLI} promote --registry ${WORK}/prom-reg --name hot
                --candidate ${WORK}/cands/torn.ckpt)

# After the rollback and the rejected candidate, 'hot' still serves
# the promoted epoch-2 model bit-for-bit.
run_step(${CLI} serve-loop --registry ${WORK}/prom-reg --model hot
         --passes 3 --interval-ms 5 --rows 4 --seed 7
         --out-dir ${WORK}/prom-C)
run_step(${CMAKE_COMMAND} -E compare_files
         ${WORK}/prom-B/epoch-2.txt ${WORK}/prom-C/epoch-2.txt)

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
run_step_expect(1 ${CLI} loadgen --model smoke --port 1
                --deadline-ms -1 STDERR "--deadline-ms must be in")

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
