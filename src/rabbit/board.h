// RMC2000 board model: Rabbit 2000 CPU + 512 KiB flash / 128 KiB SRAM +
// serial port A + timer A, wired the way src/rasm and src/dcc programs
// expect.
//
// Memory conventions (established by reset(), matching how Dynamic C lays
// out a program on the real kit):
//   logical 0x0000-0x5FFF  root code + constants  -> flash  phys 0x00000+
//   logical 0x6000-0xCFFF  data segment (globals) -> SRAM   phys 0x80000+
//   logical 0xD000-0xDFFF  stack segment          -> SRAM   phys 0x8E000+
//   logical 0xE000-0xFFFF  XPC window             -> flash/SRAM by XPC
//
// crt0: RST vectors 0x00-0x38 hold RET (so the Dynamic C debug hook RST 28h
// is a counted call+return), interrupt slots live at 0x0040+8*vec, and the
// call() helper uses a HALT parked at kCallSentinel as the return address.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "rabbit/cpu.h"
#include "rabbit/cryptocell.h"
#include "rabbit/image.h"
#include "rabbit/io.h"
#include "rabbit/memory.h"
#include "rabbit/peripherals.h"
#include "rabbit/watchdog.h"

namespace rmc::rabbit {

/// Result of running a call() on the board.
struct CallResult {
  StopReason stop = StopReason::kRunning;
  u64 cycles = 0;         // cycles consumed by this call only
  u64 instructions = 0;   // instructions retired by this call only
  u16 hl = 0;             // Rabbit/Dynamic C return-value register
  u8 a = 0;
};

/// Why the board last reset. Mirrors what Dynamic C's _sysIsSoftReset() can
/// distinguish on the real part: a cold power-on versus the warm paths
/// (watchdog bite, deliberate soft reset) where battery-backed SRAM — and in
/// this model all SRAM — retains its contents.
enum class ResetCause : u8 {
  kPowerOn,
  kSoft,
  kWatchdog,
};

const char* reset_cause_name(ResetCause cause);

class Board {
 public:
  static constexpr double kClockHz = 30.0e6;  // 30 MHz part (paper §4)
  static constexpr u64 kCyclesPerMs = static_cast<u64>(kClockHz) / 1000;
  static constexpr u16 kStackTop = 0xDFF0;
  static constexpr u16 kCallSentinel = 0x0004;  // HALT parked here
  static constexpr u16 kSerialBase = 0x00C0;
  static constexpr u16 kTimerBase = 0x00A0;
  static constexpr u16 kWatchdogBase = 0x0008;  // WDTCR/WDTTR, as on silicon
  static constexpr u16 kCryptoCellBase = 0x0100;  // optional offload engine
  static constexpr u8 kSerialIrqVector = 1;
  static constexpr u8 kTimerIrqVector = 2;
  static constexpr u8 kCryptoCellIrqVector = 3;

  Board();

  /// Cold (power-on) reset: re-establish the crt0 state and segment mapping,
  /// clear CPU state, bring the watchdog back up with its default period.
  void reset();

  /// Warm reset (_sysIsSoftReset() returns true afterwards): same crt0/CPU
  /// re-init, but recorded as `cause` — SRAM contents survive, which is what
  /// the `protected` storage class restore path depends on.
  void warm_reset(ResetCause cause);

  /// Dynamic C's _sysIsSoftReset(): true when the last reset was warm.
  bool sys_is_soft_reset() const { return soft_reset_; }
  ResetCause last_reset_cause() const { return last_cause_; }
  /// Resets performed after the constructor's initial power-on.
  u64 resets() const { return resets_; }

  /// Copy an image into physical memory and point PC at its entry.
  void load(const Image& image);

  Cpu& cpu() { return cpu_; }
  Memory& mem() { return mem_; }
  IoBus& io() { return io_; }
  SerialPort& serial() { return serial_; }
  Timer& timer() { return timer_; }
  Watchdog& watchdog() { return wdt_; }

  /// Fit the optional crypto offload engine (an expansion card, not part of
  /// the stock RMC2000 kit — boards without it read 0xFF at kCryptoCellBase
  /// and drivers fall back to software). Re-attaching replaces the engine.
  CryptoCell& attach_cryptocell(CryptoCellTiming timing = {});
  /// Pull the engine back off the bus (tests of driver fault paths).
  void detach_cryptocell();
  /// The attached engine, or nullptr on a stock board.
  CryptoCell* cryptocell() { return cryptocell_.get(); }

  /// Call the routine at `addr` with the standard stack and a sentinel
  /// return address; runs until the routine returns (HALT at the sentinel),
  /// a cycle budget is exhausted, or an illegal opcode is hit. Registers
  /// other than SP/PC are left as the caller set them (use regs() to pass
  /// arguments, e.g. HL/DE per the Dynamic C convention).
  CallResult call(u16 addr, u64 max_cycles = 50'000'000);

  /// Convenience: look up `symbol` in the loaded image and call it.
  common::Result<CallResult> call(const std::string& symbol,
                                  u64 max_cycles = 50'000'000);

  /// Run freely from the current PC (for main-loop style programs).
  StopReason run(u64 max_cycles);

  /// Result of run_guarded(): how execution ended plus how many times the
  /// watchdog bit and hard-reset the board along the way.
  struct GuardedRun {
    StopReason stop = StopReason::kCycleLimit;
    u64 cycles = 0;
    u64 watchdog_resets = 0;
  };

  /// Run like run(), but in `slice_cycles` chunks, honouring the watchdog:
  /// when it fires, the board warm-resets (counted, cause kWatchdog) and —
  /// if an image is loaded — reboots at its entry point and keeps running
  /// inside the remaining budget. This is the firmware-eye view of a WDT
  /// bite: the program restarts, it does not get to keep its wedged state.
  GuardedRun run_guarded(u64 max_cycles, u64 slice_cycles = 10'000);

  /// Wall-clock seconds a cycle count corresponds to at 30 MHz.
  static double seconds(u64 cycles) { return static_cast<double>(cycles) / kClockHz; }

 private:
  /// The crt0 + segment-register work shared by cold and warm resets.
  void init_core();

  Memory mem_;
  IoBus io_;
  Cpu cpu_;
  SerialPort serial_;
  Timer timer_;
  Watchdog wdt_;
  std::unique_ptr<CryptoCell> cryptocell_;
  std::optional<Image> loaded_;
  bool constructed_ = false;   // suppress reset counting during the ctor
  bool soft_reset_ = false;
  ResetCause last_cause_ = ResetCause::kPowerOn;
  u64 resets_ = 0;
};

}  // namespace rmc::rabbit
