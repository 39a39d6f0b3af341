fn main() {
    println!("{}", beta::run());
}
