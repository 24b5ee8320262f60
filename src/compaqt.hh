/**
 * @file
 * Umbrella header for the COMPAQT compression stack: include this one
 * file and use the `compaqt::` aliases instead of spelling out the
 * layer namespaces. Covers waveform generation, the pluggable codec
 * layer, the pipeline facade, and the sharded control-rack runtime;
 * the uarch/power/fidelity evaluation layers keep their own headers.
 *
 *     #include "compaqt.hh"
 *
 *     auto pipe = compaqt::Pipeline::with("int-dct")
 *                     .window(16).mseTarget(1e-5).build();
 */

#ifndef COMPAQT_COMPAQT_HH
#define COMPAQT_COMPAQT_HH

#include "common/arena.hh"
#include "core/adaptive.hh"
#include "core/codec.hh"
#include "core/compressed_library.hh"
#include "core/compressor.hh"
#include "core/decompressor.hh"
#include "core/fidelity_aware.hh"
#include "core/library_compiler.hh"
#include "core/pipeline.hh"
#include "dsp/simd.hh"
#include "isa/compiler.hh"
#include "isa/interpreter.hh"
#include "isa/isa.hh"
#include "isa/program_cache.hh"
#include "runtime/library_registry.hh"
#include "runtime/rack.hh"
#include "runtime/server.hh"
#include "runtime/service.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "waveform/device.hh"
#include "waveform/library.hh"
#include "waveform/shapes.hh"

namespace compaqt
{

// Streaming decode plane (SampleSpan, ConstSampleSpan, and
// ScratchArena already live in namespace compaqt — see
// common/arena.hh for span lifetime and arena ownership rules).

// Codec layer
using core::CodecRegistrar;
using core::CodecRegistry;
using core::CompressedChannel;
using core::CompressedWaveform;
using core::CompressedWindow;
using core::ICodec;

// Entry points
using core::CompressionPipeline;
using core::Compressor;
using core::CompressorConfig;
using core::Decompressor;
using Pipeline = core::CompressionPipeline;

// Fidelity-aware compression (Algorithm 1)
using core::compressFidelityAware;
using core::FidelityAwareConfig;
using core::FidelityAwareResult;

// Library compile plane
using core::AdaptiveCompressor;
using core::AdaptiveSegment;
using core::CompressedEntry;
using core::CompressedLibrary;
using core::LibraryCompiler;
using core::LibraryCompilerConfig;
using core::LibraryCompileResult;
using core::LibraryCompileStats;

// Waveforms
using waveform::IqWaveform;
using waveform::PulseLibrary;

// Sharded control-rack runtime
using runtime::Rack;
using runtime::RackConfig;
using runtime::RackStats;
using runtime::RuntimeService;
using runtime::ShardPolicy;

// Epoch-managed library ownership (RCU-style hot-swap: publish a
// recalibrated library without draining; in-flight batches finish on
// the epoch they pinned)
using runtime::LibraryRegistry;
using runtime::LibraryVersionInfo;
using runtime::VersionedLibrary;

// Hierarchical waveform-memory model (keys-only two-tier LRU with
// pluggable admission, fed by the execution grid's replay)
using runtime::AdmissionPolicy;
using runtime::admissionPolicyName;
using runtime::TierConfig;
using runtime::TieredStoreConfig;
using runtime::TieredStoreStats;
using runtime::TieredWindowStore;
using runtime::WindowEvent;

// Instruction-stream backend (compile schedules to per-shard
// PLAY/WAIT/PREFETCH programs; executeBatchCompiled drives them)
using IsaCompiler = isa::Compiler;
using IsaInterpreter = isa::Interpreter;
using isa::CompiledSchedule;
using isa::CompilerConfig;
using isa::Instruction;
using isa::InstructionProgram;
using isa::Opcode;
using isa::ProgramCache;
using isa::ProgramCacheStats;
using isa::ProgramKey;
using isa::ProgramStats;

// Serving plane (async multi-tenant front end over a fleet of racks
// sharing one LibraryRegistry)
using runtime::DispatchBackend;
using runtime::FleetConfig;
using runtime::JobResult;
using runtime::JobStatus;
using runtime::RackRollup;
using runtime::RoutingPolicy;
using runtime::ScheduledCircuit;
using runtime::Server;
using runtime::ServerConfig;
using runtime::ServerStats;

// Telemetry plane (metrics registry + Chrome-trace collector; see
// COMPAQT_TRACE_SPAN / COMPAQT_TRACE_INSTANT in telemetry/trace.hh)
using MetricsRegistry = telemetry::Registry;
using telemetry::LatencyHistogram;
using telemetry::SpanScope;
using telemetry::Trace;

} // namespace compaqt

#endif // COMPAQT_COMPAQT_HH
