//! Chrome `trace_event` export (Perfetto-loadable).

use std::io::{self, Write};

use crate::probe::{SimProbe, StallCause, TickGauges};

/// Streams the probe event stream as Chrome `trace_event` JSON.
///
/// Layout: one track (`tid`) per core under a single process (`pid` 0),
/// with one complete span per section residency (begin → end/park), an
/// async flow arrow per fork handoff (NoC send → deliver), instant
/// markers for in-place fetch stalls (named by [`StallCause`]), and
/// counter tracks sampling the per-cycle gauges every 64 cycles. One
/// simulated cycle maps to one microsecond of trace time.
///
/// The writer streams: events go to the sink as they fire (wrap the sink
/// in a [`std::io::BufWriter`] for file output) and [`finish`] closes the
/// JSON object — the output is a complete, valid document only after
/// `finish` returns. I/O errors are sticky: the first error stops all
/// further output and is returned by `finish`.
///
/// Load the result at <https://ui.perfetto.dev> or `chrome://tracing`.
///
/// [`finish`]: ChromeTraceWriter::finish
#[derive(Debug)]
pub struct ChromeTraceWriter<W: Write> {
    out: W,
    error: Option<io::Error>,
    events: u64,
    named_cores: Vec<bool>,
    next_counter: u64,
}

/// Cycle stride between counter samples.
const COUNTER_STRIDE: u64 = 64;

impl<W: Write> ChromeTraceWriter<W> {
    /// A writer streaming to `out`.
    pub fn new(out: W) -> Self {
        ChromeTraceWriter {
            out,
            error: None,
            events: 0,
            named_cores: Vec::new(),
            next_counter: 0,
        }
    }

    /// Number of trace events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    fn emit(&mut self, event: std::fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        let lead = if self.events == 0 {
            "{\"traceEvents\":[\n"
        } else {
            ",\n"
        };
        if let Err(e) = write!(self.out, "{lead}{event}") {
            self.error = Some(e);
            return;
        }
        self.events += 1;
    }

    /// Emits the lazy `thread_name` metadata for a core's track once.
    fn name_core(&mut self, core: usize) {
        if self.named_cores.len() <= core {
            self.named_cores.resize(core + 1, false);
        }
        if self.named_cores[core] {
            return;
        }
        self.named_cores[core] = true;
        self.emit(format_args!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{core},\
             \"args\":{{\"name\":\"core {core}\"}}}}"
        ));
    }

    /// Closes the JSON document and returns the sink (or the first I/O
    /// error hit while streaming).
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.events == 0 {
            self.out.write_all(b"{\"traceEvents\":[")?;
        }
        self.out.write_all(b"\n]}\n")?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> SimProbe for ChromeTraceWriter<W> {
    fn on_tick(&mut self, gauges: TickGauges) {
        if gauges.cycle < self.next_counter {
            return;
        }
        self.next_counter = gauges.cycle + COUNTER_STRIDE;
        self.emit(format_args!(
            "{{\"name\":\"chip\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"args\":{{\
             \"running\":{},\"calendar_depth\":{},\"noc_in_flight\":{},\"parked\":{}}}}}",
            gauges.cycle,
            gauges.running,
            gauges.calendar_depth,
            gauges.noc_in_flight,
            gauges.parked
        ));
    }

    fn on_section_begin(&mut self, core: usize, sid: u32, cycle: u64, resumed: bool) {
        self.name_core(core);
        self.emit(format_args!(
            "{{\"name\":\"S{sid}\",\"cat\":\"section\",\"ph\":\"B\",\"ts\":{cycle},\
             \"pid\":0,\"tid\":{core},\"args\":{{\"resumed\":{resumed}}}}}"
        ));
    }

    fn on_section_end(&mut self, core: usize, sid: u32, cycle: u64, fetched: bool) {
        // The ending fetch occupies `cycle`, so the span closes after it.
        let ts = if fetched { cycle + 1 } else { cycle };
        self.emit(format_args!(
            "{{\"name\":\"S{sid}\",\"cat\":\"section\",\"ph\":\"E\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{core}}}"
        ));
    }

    fn on_section_park(
        &mut self,
        core: usize,
        sid: u32,
        seq: usize,
        cycle: u64,
        cause: StallCause,
    ) {
        self.emit(format_args!(
            "{{\"name\":\"S{sid}\",\"cat\":\"section\",\"ph\":\"E\",\"ts\":{},\
             \"pid\":0,\"tid\":{core},\"args\":{{\"parked\":true,\"seq\":{seq},\
             \"cause\":\"{}\"}}}}",
            cycle + 1,
            cause.name()
        ));
    }

    fn on_section_requeue(&mut self, core: usize, sid: u32, cycle: u64) {
        self.name_core(core);
        self.emit(format_args!(
            "{{\"name\":\"requeue S{sid}\",\"cat\":\"section\",\"ph\":\"i\",\"ts\":{cycle},\
             \"pid\":0,\"tid\":{core},\"s\":\"t\"}}"
        ));
    }

    fn on_section_retire(&mut self, sid: u32, cycle: u64) {
        self.emit(format_args!(
            "{{\"name\":\"retire S{sid}\",\"cat\":\"retire\",\"ph\":\"i\",\"ts\":{cycle},\
             \"pid\":0,\"tid\":0,\"s\":\"g\"}}"
        ));
    }

    fn on_fetch_stall(
        &mut self,
        core: usize,
        seq: usize,
        cause: StallCause,
        cycle: u64,
        resumes: u64,
    ) {
        self.name_core(core);
        self.emit(format_args!(
            "{{\"name\":\"stall:{}\",\"cat\":\"stall\",\"ph\":\"i\",\"ts\":{cycle},\
             \"pid\":0,\"tid\":{core},\"s\":\"t\",\"args\":{{\"seq\":{seq},\"resumes\":{resumes}}}}}",
            cause.name()
        ));
    }

    fn on_noc_send(&mut self, from: usize, to: usize, sid: u32, cycle: u64) {
        self.name_core(from);
        self.emit(format_args!(
            "{{\"name\":\"fork S{sid}\",\"cat\":\"noc\",\"ph\":\"s\",\"id\":{sid},\
             \"ts\":{cycle},\"pid\":0,\"tid\":{from},\"args\":{{\"to\":{to}}}}}"
        ));
    }

    fn on_noc_deliver(&mut self, to: usize, sid: u32, cycle: u64) {
        self.name_core(to);
        self.emit(format_args!(
            "{{\"name\":\"fork S{sid}\",\"cat\":\"noc\",\"ph\":\"f\",\"bp\":\"e\",\
             \"id\":{sid},\"ts\":{cycle},\"pid\":0,\"tid\":{to}}}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_is_a_valid_document() {
        let writer = ChromeTraceWriter::new(Vec::new());
        let out = writer.finish().unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "{\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn spans_and_flows_stream_as_json_lines() {
        let mut writer = ChromeTraceWriter::new(Vec::new());
        writer.on_section_begin(3, 7, 10, false);
        writer.on_noc_send(3, 5, 8, 12);
        writer.on_noc_deliver(5, 8, 20);
        writer.on_section_end(3, 7, 15, true);
        assert_eq!(writer.events(), 6, "4 events + 2 lazy thread names");
        let out = String::from_utf8(writer.finish().unwrap()).unwrap();
        assert!(out.starts_with("{\"traceEvents\":[\n"));
        assert!(out.ends_with("\n]}\n"));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\",\"ts\":16"));
        assert!(out.contains("\"ph\":\"s\""));
        assert!(out.contains("\"ph\":\"f\""));
    }

    #[test]
    fn counter_samples_respect_the_stride() {
        let mut writer = ChromeTraceWriter::new(Vec::new());
        for cycle in 0..150 {
            writer.on_tick(TickGauges {
                cycle,
                running: 1,
                ..TickGauges::default()
            });
        }
        assert_eq!(writer.events(), 3, "samples at 0, 64, 128");
    }
}
