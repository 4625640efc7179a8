# Figure/table reproduction binaries. Declared at top level via include()
# so ${CMAKE_BINARY_DIR}/bench holds only runnable executables
# (`for b in build/bench/*; do $b; done` regenerates every paper artifact).
function(musa_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE musa_core)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

musa_add_bench(run_dse)
musa_add_bench(dse_lint)
musa_add_bench(sweep_bench)
# The DSE server daemon and its load generator (DESIGN.md §7i).
musa_add_bench(dse_serve)
target_link_libraries(dse_serve PRIVATE musa_serve)
musa_add_bench(dse_loadtest)
target_link_libraries(dse_loadtest PRIVATE musa_serve)
musa_add_bench(ablation_model)
musa_add_bench(power_report)
musa_add_bench(dse_report)
musa_add_bench(table1_configs)
musa_add_bench(fig1_workload_stats)
musa_add_bench(fig2_scaling)
musa_add_bench(fig3_fig4_timelines)
musa_add_bench(fig5_vector_width)
musa_add_bench(fig6_cache_size)
musa_add_bench(fig7_ooo)
musa_add_bench(fig8_mem_channels)
musa_add_bench(fig9_frequency)
musa_add_bench(fig10_pca)
musa_add_bench(fig11_unconventional)

# Component microbenchmarks (google-benchmark).
add_executable(micro_components ${CMAKE_SOURCE_DIR}/bench/micro_components.cpp)
target_link_libraries(micro_components PRIVATE musa_core benchmark::benchmark)
set_target_properties(micro_components PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
