//! The request fingerprint (the design server's result-cache key) must
//! cover the surface step 4 actually designs around. This test sets
//! `SURFACE_DEFECTS`, which every flow reads, so it lives alone in its
//! own test binary.

use bestagon_core::flow::FlowRequest;

#[test]
fn editing_a_defect_file_moves_the_fingerprint() {
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("surface_fingerprint.defects");
    let request =
        FlowRequest::verilog("module t (a, f); input a; output f; assign f = ~a; endmodule");
    let pristine = request.fingerprint();

    std::env::set_var("SURFACE_DEFECTS", &path);
    std::fs::write(&path, "db_pair 10 4 0\n").expect("write defect file");
    let first = request.fingerprint();
    let first_again = request.fingerprint();
    std::fs::write(&path, "db_pair 30 8 1\n").expect("rewrite defect file");
    let edited = request.fingerprint();
    std::env::remove_var("SURFACE_DEFECTS");
    let _ = std::fs::remove_file(&path);

    // Same path, different contents: a different key.
    assert_ne!(first, edited);
    // Same contents: the same key, and neither is the pristine key.
    assert_eq!(first, first_again);
    assert_ne!(first, pristine);
    assert_ne!(edited, pristine);
}
