// Umbrella header for the register-linearizability-and-termination
// library — a full C++20 reproduction of
//
//   Hadzilacos, Hu, Toueg: "On Register Linearizability and Termination",
//   PODC 2021 (arXiv:2102.13242).
//
// Public API map (see README.md for a guided tour):
//
//   rlt::sim       — deterministic coroutine simulator with a step-level
//                    strong adversary; register semantic models for
//                    atomic / linearizable / write strongly-linearizable
//                    registers (sim/scheduler.hpp, sim/regmodel.hpp).
//   rlt::history   — operation records, histories, prefixes, recorders.
//   rlt::checker   — linearizability solver and checker, write
//                    strong-linearizability tree checker (Definition 4),
//                    strong linearizability checker (Definition 3).
//   rlt::game      — Algorithm 1 (the termination game), the Theorem 6
//                    adversary, bounded variant, run harnesses.
//   rlt::registers — Algorithm 2 (vector-timestamp WSL MWMR register),
//                    Algorithm 3 (its on-line write linearizer),
//                    Algorithm 4 (Lamport-clock register), plus
//                    real-thread builds over seqlock SWMR registers.
//   rlt::mp        — asynchronous message-passing substrate, the ABD
//                    register, and the executable f* construction of
//                    Theorem 14.
//   rlt::consensus — randomized consensus (task T), drift shared coin,
//                    and the Corollary 9 composition A' = (game ; A).
#pragma once

#include "checker/lin_checker.hpp"
#include "checker/strong_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "consensus/composed.hpp"
#include "consensus/rand_consensus.hpp"
#include "consensus/shared_coin.hpp"
#include "game/game_runner.hpp"
#include "history/history.hpp"
#include "history/recorder.hpp"
#include "mp/abd.hpp"
#include "mp/f_star.hpp"
#include "mp/network.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg3_linearizer.hpp"
#include "registers/alg4_register.hpp"
#include "registers/seqlock.hpp"
#include "registers/thread_alg2.hpp"
#include "registers/thread_alg4.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "util/rng.hpp"
