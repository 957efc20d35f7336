//! A second realistic app: the shopping list, driven by screen
//! coordinates (hit-testing) rather than box paths, with a live edit
//! mid-session.
//!
//! Run with `cargo run --example shopping_live`.

use its_alive::apps::SHOPPING_SRC;
use its_alive::live::LiveSession;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut session = LiveSession::new(SHOPPING_SRC)?;
    println!("=== shopping list ===");
    print!("{}", session.live_view());

    // Find the "eggs" row on screen and tap it by coordinates.
    let view = session.live_view();
    let eggs_row = view
        .lines()
        .position(|l| l.contains("eggs"))
        .expect("visible") as i32;
    assert!(session.tap_at(1, eggs_row)?);
    println!("\n=== eggs detail ===");
    print!("{}", session.live_view());

    // Buy them (tap the [ buy ] button by coordinates).
    let view = session.live_view();
    let buy_row = view
        .lines()
        .position(|l| l.contains("[ buy ]"))
        .expect("visible") as i32;
    assert!(session.tap_at(1, buy_row)?);
    println!("\n=== back on the list (12 bought) ===");
    print!("{}", session.live_view());

    // Live edit while shopping: show the bought count more loudly.
    let edited = session.source().replace(
        "\"bought so far: \" ++ bought",
        "\"BOUGHT: \" ++ bought ++ \" units\"",
    );
    assert!(session.edit_source(&edited).is_applied());
    println!("\n=== after live edit (model intact) ===");
    print!("{}", session.live_view());

    // Add apples by coordinates too.
    let view = session.live_view();
    let add_row = view
        .lines()
        .position(|l| l.contains("add apples"))
        .expect("visible") as i32;
    assert!(session.tap_at(1, add_row)?);
    println!("\n=== after adding apples ===");
    print!("{}", session.live_view());
    Ok(())
}
