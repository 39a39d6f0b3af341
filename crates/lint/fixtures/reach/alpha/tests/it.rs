#[test]
fn tested_is_four() {
    assert_eq!(alpha::tested(), 4);
}
