// Hardware watchdog timer — the Rabbit 2000's WDT, the peripheral the paper's
// robustness story leans on: firmware must "hit the watchdog" periodically or
// the chip hard-resets, turning any wedged main loop into a counted restart
// instead of a permanently dead board.
//
// Register model (mirrors the real part's WDTCR/WDTTR pair):
//   base+0  WDTCR  write a hit code to restart the countdown and select the
//                  period: 0x5A = 2 s, 0x57 = 1 s, 0x59 = 500 ms,
//                  0x53 = 250 ms (periods in cycles at the board clock).
//                  Reads report bit0 = fired (latched), bit1 = enabled.
//   base+1  WDTTR  disable sequence: write 0x51 then 0x54 (two distinct
//                  writes, same as real silicon) to stop the WDT; any other
//                  value resets the sequence. Reads return the step count.
//
// The device only counts time (via tick()) and latches `fired`; acting on the
// fire — the hard reset — is the board's/supervisor's job, which is also what
// keeps the peripheral reusable standalone: the service-world supervisor
// drives the same device in virtual milliseconds (30'000 cycles per ms).
#pragma once

#include "rabbit/io.h"

namespace rmc::rabbit {

class Watchdog : public IoDevice {
 public:
  // WDTCR hit codes and their periods in seconds (scaled by clock_hz).
  static constexpr u8 kHit2s = 0x5A;
  static constexpr u8 kHit1s = 0x57;
  static constexpr u8 kHit500ms = 0x59;
  static constexpr u8 kHit250ms = 0x53;
  // WDTTR disable sequence.
  static constexpr u8 kDisable1 = 0x51;
  static constexpr u8 kDisable2 = 0x54;

  Watchdog(u16 base, u64 clock_hz)
      : base_(base),
        clock_hz_(clock_hz),
        period_cycles_(2 * clock_hz),
        remaining_(2 * clock_hz) {}

  // IoDevice
  u8 io_read(u16 port) override;
  void io_write(u16 port, u8 value) override;
  void tick(u64 cycles) override;

  /// Restart the countdown with the current period (what a WDTCR hit code
  /// does; exposed directly for the service-world supervisor).
  void hit() { remaining_ = period_cycles_; }

  void set_period_cycles(u64 cycles) {
    period_cycles_ = cycles;
    remaining_ = cycles;
  }

  /// Power-on / reset state: enabled, default 2 s period, nothing latched.
  /// (The real WDT comes out of every reset running.)
  void power_on_reset();

  bool fired() const { return fired_; }
  void clear_fired() { fired_ = false; }
  bool enabled() const { return enabled_; }
  u64 fires() const { return fires_; }
  u64 period_cycles() const { return period_cycles_; }
  u64 remaining_cycles() const { return remaining_; }

 private:
  u16 base_;
  u64 clock_hz_;
  u64 period_cycles_;
  u64 remaining_;
  bool enabled_ = true;
  bool fired_ = false;
  u64 fires_ = 0;
  u8 disable_step_ = 0;
};

}  // namespace rmc::rabbit
